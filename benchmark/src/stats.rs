//! The arithmetic every workload's timing shares: per-index minimum over passes, the
//! percentile index rule, the busy-thread budget, the process CPU clock and peak memory, and
//! the FNV-1a digest the correctness check folds outputs into.
//!
//! Why per-index minimum: on the 2-vCPU sandbox a once-per-process time swings 20–90 % and a
//! raw p90 up to 35 %, and for minutes at a time nineteen rounds in twenty run 25–50 % slow;
//! the minimum over enough passes of the *same* round of a fixed sequence still finds each
//! round's undisturbed cost (README.md, "Noise"). Do not replace it with a mean.

/// `lat[i]` = the minimum over passes of timed round `i` — the repo's min-of-N convention
/// (`fmore_bench::timing::min_time_ns`) applied per round index, so each entry estimates
/// the undisturbed cost of that one round.
///
/// # Panics
///
/// Panics when there is no pass or passes differ in length (a fixed sequence never does).
pub fn per_index_min<L: AsRef<[u64]>>(passes: &[L]) -> Vec<u64> {
    let rounds = passes.first().expect("at least one pass").as_ref().len();
    assert!(
        passes.iter().all(|p| p.as_ref().len() == rounds),
        "ragged passes"
    );
    (0..rounds)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.as_ref()[i])
                .min()
                .expect("non-empty")
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice: the value at 0-based index
/// `ceil(q · n) − 1`. With `n = 100`, `q = 0.9` reads index 89 and leaves ten samples
/// beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.5)
}

/// Threads a round may keep busy at once: `max(1, nproc − 1)`, all hardware threads but one.
/// With every hardware thread of the 2-vCPU sandbox busy a round is bimodal — for tens of
/// seconds at a time the same CPU work costs 1.4× — and no number of passes finds the fast
/// mode in a slow stretch (README.md, "Noise"). `Kind::engine` turns the budget into an
/// engine.
pub fn busy_threads(hardware_threads: usize) -> usize {
    hardware_threads.saturating_sub(1).max(1)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU nanoseconds (user + system) consumed so far by every thread of this process, from
/// the process CPU-time clock. `/proc/self/stat` counts the same thing in 10 ms ticks, too
/// coarse to charge to a sub-millisecond round; this clock has nanosecond resolution and
/// costs one system call, so it is read at every round boundary.
///
/// # Errors
///
/// When the clock cannot be read — a pass without CPU time is not a measurement.
pub fn process_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout libc expects on this
    // target, and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if status != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// FNV-1a over 64-bit words — the same constants as `JobHistory::fingerprint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word, byte by byte (little endian).
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_index_min_takes_each_rounds_best_pass() {
        let passes = vec![vec![5, 9, 3, 7], vec![6, 2, 4, 7], vec![4, 8, 9, 1]];
        assert_eq!(per_index_min(&passes), vec![4, 2, 3, 1]);
        assert_eq!(per_index_min(&[vec![3, 1]]), vec![3, 1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn per_index_min_rejects_ragged_passes() {
        per_index_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn percentile_follows_the_nearest_rank_rule() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), 50);
        // Index 89: exactly ten samples (91..=100) lie beyond the reported p90.
        assert_eq!(percentile(&hundred, 0.9), 90);
        assert_eq!(hundred.iter().filter(|&&v| v > 90).count(), 10);
        assert_eq!(percentile(&hundred, 1.0), 100);
        assert_eq!(percentile(&hundred, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[10, 20, 30], 0.5), 20);
        assert_eq!(median(&[30, 10, 20, 40]), 20);
    }

    #[test]
    fn the_busy_thread_budget_leaves_one_hardware_thread_free_and_is_never_zero() {
        for (nproc, busy) in [(0, 1), (1, 1), (2, 1), (3, 2), (16, 15)] {
            assert_eq!(busy_threads(nproc), busy);
        }
    }

    #[test]
    fn the_cpu_clock_advances_with_work_and_vm_hwm_parses() {
        let before = process_cpu_ns().unwrap();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let cpu = process_cpu_ns().unwrap() - before;
        let wall = started.elapsed().as_nanos() as u64;
        // A busy loop on one thread burns about its wall time; other test threads only add.
        assert!(cpu > wall / 4, "cpu {cpu} ns over wall {wall} ns");
        let status = "Name:\tb (x) y\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            for &w in words {
                d.eat(w);
            }
            d.0
        };
        // Pinned values (the second from an independent FNV-1a): a change to the fold
        // silently invalidates expected.json.
        assert_eq!(fold(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_eq!(fold(&[0x0123_4567_89ab_cdef]), 0x37eb_3f33_4776_1c55);
    }
}
