//! Job checkpoint/restore: a serialisable snapshot of a live job's resumable state.
//!
//! A checkpoint is small by design: because every round re-derives its randomness from
//! `(seed, round)` alone, the round counter **is** the job's entire RNG position — there
//! is no generator state to capture. Counter plus accumulated history is therefore a
//! complete checkpoint: a job restored mid-run and driven to completion produces a history
//! bit-identical to the uninterrupted run (pinned by the determinism suite).
//!
//! The byte format is a hand-rolled little-endian codec (the workspace takes no serde
//! dependency): a `FMCK` magic + version header, then length-prefixed fields. Every decode
//! failure — truncation, a bad tag, a length the remaining bytes cannot hold, trailing
//! bytes, reputation entries no ledger could hold — is a typed
//! [`FlError::CheckpointCorrupt`], never a panic.

use crate::error::FlError;
use crate::faults::{Corruption, FaultEvent, FaultKind};
use crate::metrics::WinnerInfo;
use crate::service::{JobHistory, RoundRecord, RoundSummary};
use fmore_auction::{AuctionError, NodeId};
use fmore_numerics::NumericsError;

/// Snapshot of one job: its round counter and full history. Produce one with
/// [`AuctionService::checkpoint`](crate::service::AuctionService::checkpoint), persist it
/// with [`JobCheckpoint::to_bytes`], and resume it on any service — before or after a
/// restart — with [`AuctionService::restore`](crate::service::AuctionService::restore)
/// plus the original [`JobSpec`](crate::service::JobSpec) (specs hold closures and are
/// deliberately *not* serialised; the caller re-supplies them).
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Rounds already run (the next round will be `round + 1`).
    pub round: u64,
    /// Everything the job recorded up to the checkpoint.
    pub history: JobHistory,
    /// The reputation ledger's tracked `(node, score)` entries, in node order — selection
    /// depends on them, so a resumed job must see the same scores the uninterrupted run
    /// would. Empty when the job runs without a reputation loop.
    pub reputation: Vec<(u64, f64)>,
}

const MAGIC: &[u8; 4] = b"FMCK";
const VERSION: u16 = 2;

/// Smallest encoding of one round record: its fixed-width prefix (round, attempts, backoff,
/// two collection lengths, the outcome tag).
const ROUND_RECORD_MIN_BYTES: usize = 8 + 4 + 8 + 8 + 8 + 1;
/// Encoding of one fault event: attempt, slot, kind tag.
const FAULT_EVENT_BYTES: usize = 4 + 8 + 1;
/// Encoding of one winner: four integers, score, payment.
const WINNER_BYTES: usize = 6 * 8;
/// Encoding of one reputation `(node, score)` pair.
const REPUTATION_PAIR_BYTES: usize = 8 + 8;

impl JobCheckpoint {
    /// The checkpointed job's name (restore validates it against the supplied spec).
    pub(crate) fn name(&self) -> &str {
        &self.history.name
    }

    /// Serialises the checkpoint to a self-describing byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.history.rounds.len() * 128);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_u64(&mut out, self.round);
        put_str(&mut out, &self.history.name);
        put_u64(&mut out, self.history.rounds.len() as u64);
        for record in &self.history.rounds {
            put_u64(&mut out, record.round);
            put_u32(&mut out, record.attempts);
            put_f64(&mut out, record.backoff_secs);
            put_u64(&mut out, record.faults.len() as u64);
            for fault in &record.faults {
                put_u32(&mut out, fault.attempt);
                put_u64(&mut out, fault.slot as u64);
                out.push(fault_kind_tag(fault.kind));
            }
            put_u64(&mut out, record.retry_errors.len() as u64);
            for error in &record.retry_errors {
                put_fl_error(&mut out, error);
            }
            match &record.outcome {
                Ok(summary) => {
                    out.push(0);
                    put_summary(&mut out, summary);
                }
                Err(error) => {
                    out.push(1);
                    put_fl_error(&mut out, error);
                }
            }
        }
        put_u64(&mut out, self.reputation.len() as u64);
        for &(node, score) in &self.reputation {
            put_u64(&mut out, node);
            put_f64(&mut out, score);
        }
        out
    }

    /// Deserialises a checkpoint produced by [`JobCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`FlError::CheckpointCorrupt`] on any malformed input: wrong magic/version,
    /// truncation, a collection length the remaining bytes cannot hold, an unknown tag,
    /// invalid UTF-8, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FlError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let round = r.u64()?;
        let name = r.string()?;
        let n_rounds = r.len(ROUND_RECORD_MIN_BYTES)?;
        let mut rounds = Vec::with_capacity(n_rounds);
        for _ in 0..n_rounds {
            let record_round = r.u64()?;
            let attempts = r.u32()?;
            let backoff_secs = r.f64()?;
            let n_faults = r.len(FAULT_EVENT_BYTES)?;
            let mut faults = Vec::with_capacity(n_faults);
            for _ in 0..n_faults {
                let attempt = r.u32()?;
                let slot = r.u64()? as usize;
                let kind = fault_kind_from_tag(r.u8()?)?;
                faults.push(FaultEvent {
                    attempt,
                    slot,
                    kind,
                });
            }
            // Every encoded error is at least its one tag byte.
            let n_retry = r.len(1)?;
            let mut retry_errors = Vec::with_capacity(n_retry);
            for _ in 0..n_retry {
                retry_errors.push(take_fl_error(&mut r)?);
            }
            let outcome = match r.u8()? {
                0 => Ok(take_summary(&mut r)?),
                1 => Err(take_fl_error(&mut r)?),
                tag => return Err(corrupt(&format!("bad outcome tag {tag}"))),
            };
            rounds.push(RoundRecord {
                round: record_round,
                outcome,
                attempts,
                backoff_secs,
                faults,
                retry_errors,
            });
        }
        let n_reputation = r.len(REPUTATION_PAIR_BYTES)?;
        let mut reputation = Vec::with_capacity(n_reputation);
        for _ in 0..n_reputation {
            let node = r.u64()?;
            let score = r.f64()?;
            // A ledger holds one finite score in [0, 1] per node, in node order: anything
            // else would be silently deduplicated, or trusted as a NaN, on restore.
            if reputation.last().is_some_and(|&(prev, _)| node <= prev) {
                return Err(corrupt(&format!("reputation node {node} out of order")));
            }
            if !(0.0..=1.0).contains(&score) {
                return Err(corrupt(&format!("reputation score {score} of node {node}")));
            }
            reputation.push((node, score));
        }
        r.finish()?;
        Ok(Self {
            round,
            history: JobHistory { name, rounds },
            reputation,
        })
    }
}

fn corrupt(msg: &str) -> FlError {
    FlError::CheckpointCorrupt(msg.to_string())
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_summary(out: &mut Vec<u8>, s: &RoundSummary) {
    put_u64(out, s.round);
    put_u64(out, s.offered as u64);
    put_u64(out, s.winners.len() as u64);
    for w in &s.winners {
        put_u64(out, w.client as u64);
        put_u64(out, w.node.0);
        put_u64(out, w.data_size as u64);
        put_u64(out, w.categories as u64);
        put_f64(out, w.score);
        put_f64(out, w.payment);
    }
    put_f64(out, s.total_payment);
    put_u64(out, s.deadline_misses as u64);
    put_u64(out, s.dropouts as u64);
    put_u64(out, s.quarantined as u64);
    put_f64(out, s.sim_secs);
    put_f64(out, s.work_value);
    put_u64(out, s.peak_bid_bytes as u64);
}

fn take_summary(r: &mut Reader<'_>) -> Result<RoundSummary, FlError> {
    let round = r.u64()?;
    let offered = r.u64()? as usize;
    let n_winners = r.len(WINNER_BYTES)?;
    let mut winners = Vec::with_capacity(n_winners);
    for _ in 0..n_winners {
        winners.push(WinnerInfo {
            client: r.u64()? as usize,
            node: NodeId(r.u64()?),
            data_size: r.u64()? as usize,
            categories: r.u64()? as usize,
            score: r.f64()?,
            payment: r.f64()?,
        });
    }
    Ok(RoundSummary {
        round,
        offered,
        winners,
        total_payment: r.f64()?,
        deadline_misses: r.u64()? as usize,
        dropouts: r.u64()? as usize,
        quarantined: r.u64()? as usize,
        sim_secs: r.f64()?,
        work_value: r.f64()?,
        peak_bid_bytes: r.u64()? as usize,
    })
}

fn fault_kind_tag(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::FillPanic => 1,
        FaultKind::WorkPanic => 2,
        FaultKind::Stall => 3,
        FaultKind::Dropout => 4,
        FaultKind::CorruptUpdate(Corruption::Nan) => 5,
        FaultKind::CorruptUpdate(Corruption::Inf) => 6,
        FaultKind::CorruptUpdate(Corruption::Scale) => 7,
    }
}

fn fault_kind_from_tag(tag: u8) -> Result<FaultKind, FlError> {
    Ok(match tag {
        1 => FaultKind::FillPanic,
        2 => FaultKind::WorkPanic,
        3 => FaultKind::Stall,
        4 => FaultKind::Dropout,
        5 => FaultKind::CorruptUpdate(Corruption::Nan),
        6 => FaultKind::CorruptUpdate(Corruption::Inf),
        7 => FaultKind::CorruptUpdate(Corruption::Scale),
        other => return Err(corrupt(&format!("bad fault kind tag {other}"))),
    })
}

fn put_fl_error(out: &mut Vec<u8>, e: &FlError) {
    match e {
        FlError::InvalidConfig(msg) => {
            out.push(0);
            put_str(out, msg);
        }
        FlError::UnknownClient(idx) => {
            out.push(1);
            put_u64(out, *idx as u64);
        }
        FlError::Auction(inner) => {
            out.push(2);
            put_auction_error(out, inner);
        }
        FlError::JobPanic(p) => {
            out.push(3);
            put_u64(out, p.slot as u64);
            put_str(out, &p.message);
        }
        FlError::UnknownJob(id) => {
            out.push(4);
            put_u64(out, *id);
        }
        FlError::AdmissionFull { capacity } => {
            out.push(5);
            put_u64(out, *capacity as u64);
        }
        FlError::Backpressure { job, pending } => {
            out.push(6);
            put_u64(out, *job);
            put_u64(out, *pending as u64);
        }
        FlError::RoundTimeout {
            round,
            sim_secs,
            budget_secs,
        } => {
            out.push(7);
            put_u64(out, *round);
            put_f64(out, *sim_secs);
            put_f64(out, *budget_secs);
        }
        FlError::NonFiniteUpdate { index } => {
            out.push(8);
            put_u64(out, *index as u64);
        }
        FlError::AllUpdatesQuarantined { quarantined } => {
            out.push(9);
            put_u64(out, *quarantined as u64);
        }
        FlError::CheckpointCorrupt(msg) => {
            out.push(10);
            put_str(out, msg);
        }
        FlError::AllBiddersExcluded { excluded } => {
            out.push(11);
            put_u64(out, *excluded as u64);
        }
    }
}

fn take_fl_error(r: &mut Reader<'_>) -> Result<FlError, FlError> {
    Ok(match r.u8()? {
        0 => FlError::InvalidConfig(r.string()?),
        1 => FlError::UnknownClient(r.u64()? as usize),
        2 => FlError::Auction(take_auction_error(r)?),
        3 => FlError::JobPanic(crate::executor::JobPanic {
            slot: r.u64()? as usize,
            message: r.string()?,
        }),
        4 => FlError::UnknownJob(r.u64()?),
        5 => FlError::AdmissionFull {
            capacity: r.u64()? as usize,
        },
        6 => FlError::Backpressure {
            job: r.u64()?,
            pending: r.u64()? as usize,
        },
        7 => FlError::RoundTimeout {
            round: r.u64()?,
            sim_secs: r.f64()?,
            budget_secs: r.f64()?,
        },
        8 => FlError::NonFiniteUpdate {
            index: r.u64()? as usize,
        },
        9 => FlError::AllUpdatesQuarantined {
            quarantined: r.u64()? as usize,
        },
        10 => FlError::CheckpointCorrupt(r.string()?),
        11 => FlError::AllBiddersExcluded {
            excluded: r.u64()? as usize,
        },
        tag => return Err(corrupt(&format!("bad error tag {tag}"))),
    })
}

fn put_auction_error(out: &mut Vec<u8>, e: &AuctionError) {
    match e {
        AuctionError::DimensionMismatch { expected, actual } => {
            out.push(0);
            put_u64(out, *expected as u64);
            put_u64(out, *actual as u64);
        }
        AuctionError::InvalidParameter(msg) => {
            out.push(1);
            put_str(out, msg);
        }
        AuctionError::ThetaOutOfSupport { theta, lo, hi } => {
            out.push(2);
            put_f64(out, *theta);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        AuctionError::InvalidGame { n, k } => {
            out.push(3);
            put_u64(out, *n as u64);
            put_u64(out, *k as u64);
        }
        AuctionError::NoBids => out.push(4),
        AuctionError::Numerics(inner) => {
            out.push(5);
            put_numerics_error(out, inner);
        }
    }
}

fn take_auction_error(r: &mut Reader<'_>) -> Result<AuctionError, FlError> {
    Ok(match r.u8()? {
        0 => AuctionError::DimensionMismatch {
            expected: r.u64()? as usize,
            actual: r.u64()? as usize,
        },
        1 => AuctionError::InvalidParameter(r.string()?),
        2 => AuctionError::ThetaOutOfSupport {
            theta: r.f64()?,
            lo: r.f64()?,
            hi: r.f64()?,
        },
        3 => AuctionError::InvalidGame {
            n: r.u64()? as usize,
            k: r.u64()? as usize,
        },
        4 => AuctionError::NoBids,
        5 => AuctionError::Numerics(take_numerics_error(r)?),
        tag => return Err(corrupt(&format!("bad auction error tag {tag}"))),
    })
}

fn put_numerics_error(out: &mut Vec<u8>, e: &NumericsError) {
    match e {
        NumericsError::InvalidInterval { lo, hi } => {
            out.push(0);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        NumericsError::EmptyInput(what) => {
            out.push(1);
            put_str(out, what);
        }
        NumericsError::InvalidProbability(p) => {
            out.push(2);
            put_f64(out, *p);
        }
    }
}

fn take_numerics_error(r: &mut Reader<'_>) -> Result<NumericsError, FlError> {
    // `NumericsError` carries `&'static str` names. Decoding leaks the tiny decoded
    // string to regain `'static` — checkpoints are restored a handful of times per
    // process, and exact round-tripping (history equality, fingerprint stability)
    // matters more than the few bytes.
    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
    Ok(match r.u8()? {
        0 => NumericsError::InvalidInterval {
            lo: r.f64()?,
            hi: r.f64()?,
        },
        1 => NumericsError::EmptyInput(leak(r.string()?)),
        2 => NumericsError::InvalidProbability(r.f64()?),
        tag => return Err(corrupt(&format!("bad numerics error tag {tag}"))),
    })
}

/// Bounds-checked cursor over a checkpoint buffer; every overrun is a typed error.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FlError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated checkpoint"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FlError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FlError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, FlError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, FlError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f64(&mut self) -> Result<f64, FlError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length whose elements each encode to at least `min_bytes`: a count the
    /// remaining bytes could not hold is rejected before the caller pre-allocates for it, so
    /// a corrupt length word costs at most one allocation the size of the input.
    fn len(&mut self, min_bytes: usize) -> Result<usize, FlError> {
        let n = self.u64()?;
        let remaining = self.bytes.len() - self.pos;
        if n > (remaining / min_bytes) as u64 {
            return Err(corrupt(&format!("implausible collection length {n}")));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, FlError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    fn finish(&self) -> Result<(), FlError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(&format!(
                "{} trailing bytes after checkpoint",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::NumericsError;

    fn sample_summary() -> RoundSummary {
        RoundSummary {
            round: 3,
            offered: 256,
            winners: vec![WinnerInfo {
                client: 17,
                node: NodeId(17),
                data_size: 1,
                categories: 1,
                score: 1.25,
                payment: 0.875,
            }],
            total_payment: 0.875,
            deadline_misses: 2,
            dropouts: 1,
            quarantined: 1,
            sim_secs: 6.5,
            work_value: 4.0,
            peak_bid_bytes: 4096,
        }
    }

    fn every_error() -> Vec<FlError> {
        vec![
            FlError::InvalidConfig("K > N".into()),
            FlError::UnknownClient(4),
            FlError::Auction(AuctionError::DimensionMismatch {
                expected: 2,
                actual: 3,
            }),
            FlError::Auction(AuctionError::InvalidParameter("w".into())),
            FlError::Auction(AuctionError::ThetaOutOfSupport {
                theta: 9.0,
                lo: 0.1,
                hi: 1.0,
            }),
            FlError::Auction(AuctionError::InvalidGame { n: 4, k: 9 }),
            FlError::Auction(AuctionError::NoBids),
            FlError::Auction(AuctionError::Numerics(NumericsError::InvalidInterval {
                lo: 2.0,
                hi: 1.0,
            })),
            FlError::Auction(AuctionError::Numerics(NumericsError::EmptyInput("grid"))),
            FlError::Auction(AuctionError::Numerics(NumericsError::InvalidProbability(
                1.5,
            ))),
            FlError::JobPanic(crate::executor::JobPanic {
                slot: 3,
                message: "boom".into(),
            }),
            FlError::UnknownJob(8),
            FlError::AdmissionFull { capacity: 4 },
            FlError::Backpressure { job: 2, pending: 8 },
            FlError::RoundTimeout {
                round: 5,
                sim_secs: 35.0,
                budget_secs: 20.0,
            },
            FlError::NonFiniteUpdate { index: 2 },
            FlError::AllUpdatesQuarantined { quarantined: 6 },
            FlError::CheckpointCorrupt("nested".into()),
            FlError::AllBiddersExcluded { excluded: 12 },
        ]
    }

    fn sample_checkpoint() -> JobCheckpoint {
        let mut rounds = vec![RoundRecord {
            round: 1,
            outcome: Ok(sample_summary()),
            attempts: 2,
            backoff_secs: 1.5,
            faults: vec![
                FaultEvent {
                    attempt: 0,
                    slot: 4,
                    kind: FaultKind::Stall,
                },
                FaultEvent {
                    attempt: 0,
                    slot: 0,
                    kind: FaultKind::CorruptUpdate(Corruption::Scale),
                },
            ],
            retry_errors: vec![FlError::RoundTimeout {
                round: 1,
                sim_secs: 40.0,
                budget_secs: 20.0,
            }],
        }];
        // One failed round per error variant, so the codec round-trips the whole family.
        for (i, error) in every_error().into_iter().enumerate() {
            rounds.push(RoundRecord {
                round: 2 + i as u64,
                outcome: Err(error),
                attempts: 1,
                backoff_secs: 0.0,
                faults: Vec::new(),
                retry_errors: Vec::new(),
            });
        }
        let round = rounds.len() as u64;
        JobCheckpoint {
            round,
            history: JobHistory {
                name: "cp-job".into(),
                rounds,
            },
            reputation: vec![(3, 0.75), (17, 0.0), (901, 0.25)],
        }
    }

    #[test]
    fn checkpoint_round_trips_every_variant_exactly() {
        let cp = sample_checkpoint();
        let bytes = cp.to_bytes();
        let back = JobCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.name(), "cp-job");
        assert_eq!(
            back.history.fingerprint(),
            cp.history.fingerprint(),
            "serialisation preserves the history fingerprint"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors_never_panics() {
        let bytes = sample_checkpoint().to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            JobCheckpoint::from_bytes(&bad),
            Err(FlError::CheckpointCorrupt(_))
        ));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            JobCheckpoint::from_bytes(&bad),
            Err(FlError::CheckpointCorrupt(_))
        ));
        // Truncation at every prefix length must fail typed, not panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    JobCheckpoint::from_bytes(&bytes[..cut]),
                    Err(FlError::CheckpointCorrupt(_))
                ),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected too.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            JobCheckpoint::from_bytes(&bad),
            Err(FlError::CheckpointCorrupt(_))
        ));
        // An implausible collection length fails at the length word, before allocating.
        let rejects_length = |at: usize, n: u64| {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&n.to_le_bytes());
            let expected = format!("implausible collection length {n}");
            assert!(
                matches!(
                    JobCheckpoint::from_bytes(&bad),
                    Err(FlError::CheckpointCorrupt(ref msg)) if *msg == expected
                ),
                "length {n} at byte {at}: {:?}",
                JobCheckpoint::from_bytes(&bad)
            );
        };
        let name_len_at = 4 + 2 + 8;
        rejects_length(name_len_at, u64::MAX);
        // A round count one more than the remaining bytes could hold at the smallest
        // record encoding: fewer rounds than bytes, but still rejected up front instead of
        // reserving `size_of::<RoundRecord>()` bytes per claimed round.
        let rounds_at = name_len_at + 8 + "cp-job".len();
        let remaining = bytes.len() - (rounds_at + 8);
        rejects_length(rounds_at, (remaining / ROUND_RECORD_MIN_BYTES + 1) as u64);
    }

    #[test]
    fn the_retired_numerics_tag_is_corrupt() {
        // Tag 3 was `NumericsError::InvalidParameter`, which no routine produces any more.
        let probability = 0.123_456_789;
        let cp = JobCheckpoint {
            round: 1,
            history: JobHistory {
                name: "tag".into(),
                rounds: vec![RoundRecord {
                    round: 1,
                    outcome: Err(FlError::Auction(AuctionError::Numerics(
                        NumericsError::InvalidProbability(probability),
                    ))),
                    attempts: 1,
                    backoff_secs: 0.0,
                    faults: Vec::new(),
                    retry_errors: Vec::new(),
                }],
            },
            reputation: Vec::new(),
        };
        let mut bytes = cp.to_bytes();
        assert_eq!(JobCheckpoint::from_bytes(&bytes).unwrap(), cp);
        let value = probability.to_bits().to_le_bytes();
        let at = bytes
            .windows(8)
            .position(|w| w == value)
            .expect("the probability is encoded");
        assert_eq!(bytes[at - 1], 2, "the byte before it is the numerics tag");
        bytes[at - 1] = 3;
        assert!(matches!(
            JobCheckpoint::from_bytes(&bytes),
            Err(FlError::CheckpointCorrupt(ref msg)) if msg.contains("numerics error tag 3")
        ));
    }

    #[test]
    fn hostile_reputation_entries_are_typed_errors() {
        let decode = |reputation: Vec<(u64, f64)>| {
            let cp = JobCheckpoint {
                reputation,
                ..sample_checkpoint()
            };
            JobCheckpoint::from_bytes(&cp.to_bytes())
        };
        for hostile in [
            vec![(9, f64::NAN), (3, 7.5), (3, -2.0), (1, f64::INFINITY)],
            vec![(3, 0.5), (3, 0.25)],
            vec![(4, 0.5), (2, 0.25)],
            vec![(1, f64::NAN)],
            vec![(1, f64::INFINITY)],
            vec![(1, f64::NEG_INFINITY)],
            vec![(1, 1.5)],
            vec![(1, -0.25)],
        ] {
            assert!(
                matches!(decode(hostile.clone()), Err(FlError::CheckpointCorrupt(_))),
                "{hostile:?} decoded"
            );
        }
        // The ledger's own range, both ends included, still decodes.
        let edges = vec![(0, 0.0), (1, 1.0), (u64::MAX, 0.5)];
        assert_eq!(decode(edges.clone()).unwrap().reputation, edges);
    }

    #[test]
    fn empty_history_checkpoints_round_trip() {
        let cp = JobCheckpoint {
            round: 0,
            history: JobHistory {
                name: "fresh".into(),
                rounds: Vec::new(),
            },
            reputation: Vec::new(),
        };
        assert_eq!(JobCheckpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
    }
}
