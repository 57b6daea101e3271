//! Plain data series and tables used to emit experiment results.

/// One named (x, y) series — e.g. "FMore accuracy" over training rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name as it would appear in a figure legend.
    pub name: String,
    /// X coordinates (rounds, N, K, ψ, seconds, …).
    pub xs: Vec<f64>,
    /// Y values.
    pub ys: Vec<f64>,
}

impl Series {
    /// Creates a series with implicit x = 1, 2, 3, … (training rounds).
    pub fn from_rounds(name: impl Into<String>, ys: Vec<f64>) -> Self {
        let xs = (1..=ys.len()).map(|i| i as f64).collect();
        Self {
            name: name.into(),
            xs,
            ys,
        }
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.ys.len()
    }
}

/// A small table rendered as Markdown (the "rows the paper reports").
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row values as strings (already formatted by the experiment).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub(crate) fn push_row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_construction_and_accessors() {
        let r = Series::from_rounds("loss", vec![2.0, 1.5, 1.0]);
        assert_eq!(r.name, "loss");
        assert_eq!(r.len(), 3);
        assert_eq!(r.xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(r.ys, vec![2.0, 1.5, 1.0]);
    }

    #[test]
    fn markdown_table_renders_headers_and_rows() {
        let mut t = Table::new("Fig. 9b", &["N", "payment", "score"]);
        t.push_row(&["50".to_string(), "4400".to_string(), "600".to_string()]);
        t.push_row(&["100".to_string(), "4100.5".to_string(), "900".to_string()]);
        let md = t.to_markdown();
        assert!(md.contains("### Fig. 9b"));
        assert!(md.contains("| N | payment | score |"));
        assert!(md.contains("| 50 | 4400 | 600 |"));
        assert!(md.contains("| 100 | 4100.5 | 900 |"));
        assert_eq!(md.matches("---|").count(), 3);
    }
}
