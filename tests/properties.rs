//! Randomised property tests on the core mechanism invariants, run against the public
//! facade crate through the vendored `minicheck` harness (seeded generation + shrinking over
//! the same `fmore_numerics` RNG the simulators use — the build environment has no registry
//! access, so `proptest` is unavailable).
//!
//! Every property runs 64 deterministic cases; a failure panics with the shrunk minimal
//! counterexample and the seed to replay it.

use fmore::auction::prelude::*;
use fmore::fl::engine::{apply_deadline, ParticipantTiming};
use fmore::mec::{ResourceProfile, TimeModel};
use fmore::numerics::normalize::MinMaxNormalizer;
use fmore::numerics::{Distribution1D, UniformDist};
use minicheck::{check, ensure, Config, F64Range, Tuple2, Tuple3, UsizeRange, VecOf};

/// The quasi-linear scoring rule is monotone: more quality or a lower ask never lowers the
/// score.
#[test]
fn score_is_monotone_in_quality_and_antitone_in_ask() {
    let rule = ScoringRule::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap());
    let strategy = Tuple2(
        Tuple2(F64Range::new(0.0, 1.0), F64Range::new(0.0, 1.0)),
        Tuple3(
            F64Range::new(0.0, 0.5),
            F64Range::new(0.0, 1.0),
            F64Range::new(0.0, 0.5),
        ),
    );
    check(
        &Config::seeded(0xA1),
        &strategy,
        |((q1, q2), (bump, ask, discount))| {
            let base = rule.score(&Quality::new(vec![*q1, *q2]), *ask).unwrap();
            let better_quality = rule
                .score(&Quality::new(vec![q1 + bump, *q2]), *ask)
                .unwrap();
            let cheaper = rule
                .score(&Quality::new(vec![*q1, *q2]), (ask - discount).max(0.0))
                .unwrap();
            ensure(better_quality >= base - 1e-12, || {
                format!("quality bump lowered the score: {better_quality} < {base}")
            })?;
            ensure(cheaper >= base - 1e-12, || {
                format!("ask discount lowered the score: {cheaper} < {base}")
            })
        },
    );
}

/// First-price auctions always pay winners exactly their ask, and the winner set is never
/// larger than K or the number of bidders; every winner's score weakly beats every loser's.
#[test]
fn auction_awards_are_consistent() {
    let strategy = Tuple3(
        VecOf::new(F64Range::new(0.0, 2.0), 1, 40),
        UsizeRange::new(1, 10),
        UsizeRange::new(0, 1_000),
    );
    check(&Config::seeded(0xA2), &strategy, |(asks, k, tie_seed)| {
        let rule = ScoringRule::new(Additive::new(vec![1.0]).unwrap());
        let auction = Auction::new(rule, *k, SelectionRule::TopK, PricingRule::FirstPrice);
        let bids: Vec<SubmittedBid> = asks
            .iter()
            .enumerate()
            .map(|(i, &ask)| SubmittedBid::new(NodeId(i as u64), Quality::new(vec![1.0]), ask))
            .collect();
        let outcome = auction
            .run(bids, &mut fmore::numerics::seeded_rng(*tie_seed as u64))
            .map_err(|e| e.to_string())?;
        ensure(outcome.winners().len() == (*k).min(asks.len()), || {
            format!(
                "{} winners for K={k}, N={}",
                outcome.winners().len(),
                asks.len()
            )
        })?;
        for award in outcome.winners() {
            let original = asks[award.node.0 as usize];
            ensure((award.payment - original).abs() < 1e-12, || {
                format!("first price paid {} for ask {original}", award.payment)
            })?;
        }
        let winner_ids = outcome.winner_ids();
        let min_winner = outcome
            .winners()
            .iter()
            .map(|w| w.score)
            .fold(f64::INFINITY, f64::min);
        for bid in outcome.ranked() {
            if !winner_ids.contains(&bid.node) {
                ensure(bid.score <= min_winner + 1e-9, || {
                    format!("loser score {} beats worst winner {min_winner}", bid.score)
                })?;
            }
        }
        Ok(())
    });
}

fn quadratic_solver() -> (EquilibriumSolver, QuadraticCost) {
    let cost = QuadraticCost::new(vec![1.0]).unwrap();
    let solver = EquilibriumSolver::builder()
        .scoring(Additive::new(vec![1.0]).unwrap())
        .cost(cost.clone())
        .theta(UniformDist::new(0.2, 1.0).unwrap())
        .bounds(vec![(0.0, 4.0)])
        .population(25)
        .winners(5)
        .grid_size(64)
        .build()
        .unwrap();
    (solver, cost)
}

/// Individual rationality: every equilibrium bid asks at least its private cost (a positive
/// margin), expects non-negative profit, and carries a valid win probability — so a
/// first-price winner is never paid below cost.
#[test]
fn equilibrium_bids_are_individually_rational() {
    let (solver, cost) = quadratic_solver();
    check(
        &Config::seeded(0xA3),
        &F64Range::new(0.21, 0.99),
        |&theta| {
            let bid = solver.bid_for(theta).map_err(|e| e.to_string())?;
            let c = cost.value(bid.quality.as_slice(), theta);
            ensure(bid.ask >= c - 1e-6, || {
                format!(
                    "IR margin violated: ask {} < cost {c} at theta {theta}",
                    bid.ask
                )
            })?;
            ensure(bid.expected_profit >= -1e-9, || {
                format!("negative expected profit {}", bid.expected_profit)
            })?;
            ensure((0.0..=1.0).contains(&bid.win_probability), || {
                format!("win probability {} outside [0, 1]", bid.win_probability)
            })
        },
    );
}

/// Truthfulness margin: playing the equilibrium bid of one's **true** type is (up to grid
/// discretisation) at least as profitable as submitting the equilibrium bid of any other
/// type — the expected-utility deviation test behind the paper's Theorem 2 incentive claim.
#[test]
fn equilibrium_bidding_is_truthful_up_to_discretisation() {
    let (solver, cost) = quadratic_solver();
    let strategy = Tuple2(F64Range::new(0.21, 0.99), F64Range::new(0.21, 0.99));
    check(&Config::seeded(0xA8), &strategy, |&(theta, deviation)| {
        let truthful = solver.bid_for(theta).map_err(|e| e.to_string())?;
        let deviant = solver.bid_for(deviation).map_err(|e| e.to_string())?;
        let profit = |bid: &EquilibriumBid| {
            bid.win_probability * (bid.ask - cost.value(bid.quality.as_slice(), theta))
        };
        let honest = profit(&truthful);
        let dishonest = profit(&deviant);
        // The 64-point value grid discretises both the quality choice and the win
        // probability, so allow a small absolute slack.
        ensure(honest >= dishonest - 5e-3, || {
            format!(
                "type {theta} gains {:.6} by imitating type {deviation} \
                 (honest {honest:.6} < deviant {dishonest:.6})",
                dishonest - honest
            )
        })
    });
}

/// Realised first-price auctions over equilibrium bids never pay a winner below its private
/// cost — individual rationality end-to-end, not just at the bidding stage.
#[test]
fn first_price_auctions_over_equilibrium_bids_are_individually_rational() {
    let (solver, cost) = quadratic_solver();
    let strategy = Tuple2(
        VecOf::new(F64Range::new(0.21, 0.99), 1, 25),
        UsizeRange::new(0, 1_000),
    );
    check(&Config::seeded(0xA9), &strategy, |(thetas, tie_seed)| {
        let auction = Auction::new(
            ScoringRule::new(Additive::new(vec![1.0]).unwrap()),
            5,
            SelectionRule::TopK,
            PricingRule::FirstPrice,
        );
        let mut bids = Vec::new();
        for (i, &theta) in thetas.iter().enumerate() {
            let bid = solver.bid_for(theta).map_err(|e| e.to_string())?;
            bids.push(SubmittedBid::new(NodeId(i as u64), bid.quality, bid.ask));
        }
        let outcome = auction
            .run(bids, &mut fmore::numerics::seeded_rng(*tie_seed as u64))
            .map_err(|e| e.to_string())?;
        for award in outcome.winners() {
            let theta = thetas[award.node.0 as usize];
            let c = cost.value(award.quality.as_slice(), theta);
            ensure(award.payment >= c - 1e-6, || {
                format!(
                    "winner {} paid {} below its cost {c} (theta {theta})",
                    award.node, award.payment
                )
            })?;
        }
        Ok(())
    });
}

/// A node that solves its strategy once and caps it every round submits, bit for bit, the
/// bid a node re-solving from θ every round would — for every payment method, across the θ
/// support (both endpoints and the ±1e-12 slack included) and random capacities; an
/// out-of-support or non-finite θ is refused identically by both; and a one-shot bid costs
/// exactly one quality maximisation.
#[test]
fn strategy_then_cap_is_bit_identical_to_the_one_shot_bid() {
    let (lo, hi) = (0.2, 1.0);
    let bits = |bid: &SubmittedBid| -> (NodeId, Vec<u64>, u64) {
        let quality = bid.quality.as_slice().iter().map(|v| v.to_bits()).collect();
        (bid.node, quality, bid.ask.to_bits())
    };
    for (method, k) in [
        (PaymentMethod::Quadrature, 5),
        (PaymentMethod::Euler { steps: 64 }, 5),
        (PaymentMethod::CheClosedForm, 2),
    ] {
        let scoring = std::sync::Arc::new(CountingScoring::new(
            CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap(),
        ));
        let solver = EquilibriumSolver::builder()
            .scoring(std::sync::Arc::clone(&scoring))
            .cost(LinearCost::new(vec![10.0, 5.0]).unwrap())
            .theta(UniformDist::new(lo, hi).unwrap())
            .bounds(vec![(0.0, 1.0), (0.0, 1.0)])
            .population(25)
            .winners(k)
            .payment_method(method)
            .grid_size(64)
            .build()
            .unwrap();
        let agree = |theta: f64, capacities: &[(f64, f64)]| -> Result<(), String> {
            let before = scoring.evaluations();
            let (ideal, _) = solver.quality_choice(theta);
            let one_maximisation = scoring.evaluations() - before;
            let held = solver.strategy_for(theta).map_err(|e| e.to_string())?;
            let solving = scoring.evaluations() - before - one_maximisation;
            ensure(solving == one_maximisation, || {
                format!("{method:?}: strategy_for({theta}) spent {solving} evaluations, one maximisation is {one_maximisation}")
            })?;
            let ask = solver.payment_for(theta).map_err(|e| e.to_string())?;
            for (round, &(c1, c2)) in capacities.iter().enumerate() {
                let (node, capacity) = (NodeId(round as u64), [c1, c2]);
                let solved = scoring.evaluations();
                let kept = held.cap(node, &capacity).map_err(|e| e.to_string())?;
                ensure(scoring.evaluations() == solved, || {
                    format!("{method:?}: capping a held strategy evaluated the objective")
                })?;
                let fresh = solver
                    .capped_bid(node, theta, &capacity)
                    .map_err(|e| e.to_string())?;
                let spent = scoring.evaluations() - solved;
                ensure(spent == one_maximisation, || {
                    format!("{method:?}: capped_bid({theta}) spent {spent} evaluations, one maximisation is {one_maximisation}")
                })?;
                let declared = vec![ideal[0].min(c1), ideal[1].min(c2)];
                let reference = SubmittedBid::new(node, Quality::new(declared), ask);
                ensure(
                    bits(&kept) == bits(&fresh) && bits(&kept) == bits(&reference),
                    || {
                        format!("{method:?} θ={theta} capacity {capacity:?}: kept {kept:?}, one-shot {fresh:?}, reference {reference:?}")
                    },
                )?;
            }
            Ok(())
        };
        let strategy = Tuple2(
            F64Range::new(lo, hi),
            VecOf::new(
                Tuple2(F64Range::new(0.0, 1.2), F64Range::new(0.0, 1.2)),
                1,
                5,
            ),
        );
        check(&Config::seeded(0xC1), &strategy, |(theta, capacities)| {
            agree(*theta, capacities)
        });
        for theta in [lo, hi, lo - 1e-12, hi + 1e-12] {
            agree(theta, &[(0.3, 0.9), (1.0, 0.0), (2.0, 2.0)]).unwrap();
        }
        for theta in [
            lo - 3e-12,
            hi + 3e-12,
            0.0,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let refused = |result: Result<(), AuctionError>| match result {
                Err(AuctionError::ThetaOutOfSupport {
                    theta: t,
                    lo: l,
                    hi: h,
                }) => t.to_bits() == theta.to_bits() && (l, h) == (lo, hi),
                _ => false,
            };
            assert!(refused(solver.strategy_for(theta).map(|_| ())), "{theta}");
            assert!(
                refused(solver.capped_bid(NodeId(0), theta, &[0.5, 0.5]).map(|_| ())),
                "{theta}"
            );
        }
    }
}

/// ψ-FMore always returns exactly `min(K, N)` distinct winners regardless of ψ.
#[test]
fn psi_selection_always_fills_the_winner_set() {
    let strategy = Tuple3(
        UsizeRange::new(1, 60),
        UsizeRange::new(1, 30),
        F64Range::new(0.01, 1.0),
    );
    check(&Config::seeded(0xA4), &strategy, |&(n, k, psi)| {
        let mut rng = fmore::numerics::seeded_rng((n * 31 + k) as u64);
        let winners = SelectionRule::PsiFMore { psi }.select_indices(n, k, &mut rng);
        ensure(winners.len() == k.min(n), || {
            format!("{} winners for K={k}, N={n}, psi={psi}", winners.len())
        })?;
        let mut dedup = winners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        ensure(dedup.len() == winners.len(), || {
            format!("duplicate winners at K={k}, N={n}, psi={psi}")
        })
    });
}

/// Min–max normalisation always lands in [0, 1] and round-trips within the range.
#[test]
fn normalizer_round_trips() {
    let strategy = Tuple3(
        F64Range::new(-100.0, 100.0),
        F64Range::new(0.1, 100.0),
        F64Range::new(-200.0, 200.0),
    );
    check(&Config::seeded(0xA5), &strategy, |&(lo, width, x)| {
        let n = MinMaxNormalizer::new(lo, lo + width);
        let y = n.normalize(x);
        ensure((0.0..=1.0).contains(&y), || {
            format!("normalized {y} outside [0, 1]")
        })?;
        let back = n.denormalize(y);
        ensure(back >= lo - 1e-9 && back <= lo + width + 1e-9, || {
            format!("denormalized {back} escaped [{lo}, {}]", lo + width)
        })?;
        if x >= lo && x <= lo + width {
            ensure((back - x).abs() < 1e-6, || {
                format!("in-range value {x} round-tripped to {back}")
            })?;
        }
        Ok(())
    });
}

/// The uniform θ distribution's quantile inverts its CDF everywhere.
#[test]
fn uniform_quantile_inverts_cdf() {
    let strategy = Tuple3(
        F64Range::new(0.01, 1.0),
        F64Range::new(0.1, 2.0),
        F64Range::new(0.0, 1.0),
    );
    check(&Config::seeded(0xA6), &strategy, |&(lo, width, p)| {
        let d = UniformDist::new(lo, lo + width).map_err(|e| e.to_string())?;
        let q = d.quantile(p).map_err(|e| e.to_string())?;
        ensure((d.cdf(q) - p).abs() < 1e-4, || {
            format!("cdf(quantile({p})) = {} drifted", d.cdf(q))
        })
    });
}

/// FedAvg (the [`fmore::fl::FedAvg`] rule) over owned updates; an empty result is an error.
fn fedavg(updates: &[(Vec<f64>, f64)]) -> Result<Vec<f64>, String> {
    use fmore::fl::{AggregationRule, AggregationScratch, FedAvg};
    let borrowed: Vec<(&[f64], f64)> = updates.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
    let mut out = Vec::new();
    let report = FedAvg
        .aggregate_with(&borrowed, &mut out, &mut AggregationScratch::new())
        .map_err(|e| e.to_string())?;
    ensure(report.accepted == updates.len() && !out.is_empty(), || {
        format!(
            "{} of {} updates aggregated",
            report.accepted,
            updates.len()
        )
    })?;
    Ok(out)
}

/// FedAvg output always lies inside the per-coordinate envelope of its inputs, and averaging
/// identical updates returns them unchanged.
#[test]
fn federated_average_stays_in_envelope() {
    let strategy = Tuple2(
        VecOf::new(
            Tuple2(F64Range::new(-5.0, 5.0), F64Range::new(-1.0, 1.0)),
            1,
            20,
        ),
        Tuple2(F64Range::new(0.1, 10.0), F64Range::new(0.1, 10.0)),
    );
    check(
        &Config::seeded(0xA7),
        &strategy,
        |(coords, (weight_a, weight_b))| {
            let a: Vec<f64> = coords.iter().map(|(base, _)| *base).collect();
            let b: Vec<f64> = coords.iter().map(|(base, delta)| base + delta).collect();
            let avg = fedavg(&[(a.clone(), *weight_a), (b.clone(), *weight_b)])?;
            for i in 0..a.len() {
                let lo = a[i].min(b[i]) - 1e-9;
                let hi = a[i].max(b[i]) + 1e-9;
                ensure(avg[i] >= lo && avg[i] <= hi, || {
                    format!("coordinate {i}: {} escaped [{lo}, {hi}]", avg[i])
                })?;
            }
            let same = fedavg(&[(a.clone(), *weight_a), (a.clone(), *weight_b)])?;
            for (x, y) in same.iter().zip(&a) {
                ensure((x - y).abs() < 1e-9, || {
                    format!("identical updates averaged to {x} != {y}")
                })?;
            }
            Ok(())
        },
    );
}

/// FedAvg weight-sum invariance (Eq. 3 is a convex combination): scaling every weight by the
/// same positive factor leaves the aggregate bit-for-bit meaningful — i.e. unchanged up to
/// floating-point tolerance.
#[test]
fn federated_average_is_invariant_under_weight_scaling() {
    let strategy = Tuple2(
        VecOf::new(
            Tuple2(F64Range::new(-5.0, 5.0), F64Range::new(0.1, 10.0)),
            1,
            12,
        ),
        F64Range::new(0.05, 50.0),
    );
    check(&Config::seeded(0xAA), &strategy, |(updates, scale)| {
        // Each generated pair is a one-dimensional update with its weight; widen to three
        // dimensions so the invariance is exercised across coordinates.
        let plain: Vec<(Vec<f64>, f64)> = updates
            .iter()
            .map(|(v, w)| (vec![*v, v * 2.0, v - 1.0], *w))
            .collect();
        let scaled: Vec<(Vec<f64>, f64)> =
            plain.iter().map(|(v, w)| (v.clone(), w * scale)).collect();
        let base = fedavg(&plain)?;
        let rescaled = fedavg(&scaled)?;
        for (x, y) in base.iter().zip(&rescaled) {
            ensure((x - y).abs() < 1e-9, || {
                format!("weight scaling by {scale} moved a coordinate: {x} -> {y}")
            })?;
        }
        Ok(())
    });
}

/// TimeModel monotonicity: more cores or bandwidth never slows a node down; more data or
/// epochs never speeds it up; a synchronous round is never faster than its slowest
/// participant.
#[test]
fn time_model_is_monotone_in_resources_and_work() {
    let model = TimeModel::paper_cluster();
    let strategy = Tuple3(
        Tuple2(F64Range::new(1.0, 8.0), F64Range::new(100.0, 1000.0)),
        Tuple2(F64Range::new(1.0, 10_000.0), UsizeRange::new(1, 3)),
        Tuple2(F64Range::new(0.1, 4.0), F64Range::new(1.0, 500.0)),
    );
    check(
        &Config::seeded(0xAB),
        &strategy,
        |&((cores, bandwidth), (data, epochs), (core_bump, bandwidth_bump))| {
            let profile = |c: f64, b: f64| ResourceProfile {
                cpu_cores: c,
                bandwidth_mbps: b,
                data_size: data,
            };
            let base = profile(cores, bandwidth);
            let faster_cpu = profile(cores + core_bump, bandwidth);
            let faster_net = profile(cores, bandwidth + bandwidth_bump);
            ensure(
                model.computation_secs(&faster_cpu, data, epochs)
                    <= model.computation_secs(&base, data, epochs) + 1e-12,
                || "more cores slowed computation down".to_string(),
            )?;
            ensure(
                model.communication_secs(&faster_net) <= model.communication_secs(&base) + 1e-12,
                || "more bandwidth slowed communication down".to_string(),
            )?;
            ensure(
                model.computation_secs(&base, data * 2.0, epochs)
                    >= model.computation_secs(&base, data, epochs) - 1e-12,
                || "more data sped computation up".to_string(),
            )?;
            ensure(
                model.computation_secs(&base, data, epochs + 1)
                    >= model.computation_secs(&base, data, epochs) - 1e-12,
                || "more epochs sped computation up".to_string(),
            )?;
            let participants = [(base, data), (faster_cpu, data)];
            let round = model.round_secs(&participants, epochs);
            for (p, d) in &participants {
                ensure(
                    round >= model.node_round_secs(p, *d, epochs) - 1e-12,
                    || "synchronous round finished before its slowest participant".to_string(),
                )?;
            }
            Ok(())
        },
    );
}

/// The deadline gate is monotone in the deadline: a larger deadline never shrinks the
/// survivor set and never shortens the server's wave time.
#[test]
fn deadline_gate_is_monotone_in_the_deadline() {
    let strategy = Tuple3(
        VecOf::new(
            Tuple2(F64Range::new(0.0, 100.0), UsizeRange::new(0, 9)),
            0,
            12,
        ),
        F64Range::new(1.0, 80.0),
        F64Range::new(0.0, 80.0),
    );
    check(&Config::seeded(0xAC), &strategy, |(fates, d1, extra)| {
        let timings: Vec<ParticipantTiming> = fates
            .iter()
            .enumerate()
            .map(|(slot, (secs, tag))| ParticipantTiming {
                slot,
                // Tag 0 marks a dropout (infinite completion), tags 1-2 a straggler.
                completion_secs: if *tag == 0 { f64::INFINITY } else { *secs },
                straggler: (1..=2).contains(tag),
                dropped_out: *tag == 0,
            })
            .collect();
        let d2 = d1 + extra;
        let tight = apply_deadline(&timings, *d1);
        let loose = apply_deadline(&timings, d2);
        ensure(tight.survivors.len() <= loose.survivors.len(), || {
            format!(
                "raising the deadline {d1} -> {d2} lost survivors: {:?} -> {:?}",
                tight.survivors, loose.survivors
            )
        })?;
        for slot in &tight.survivors {
            ensure(loose.survivors.contains(slot), || {
                format!("survivor {slot} at deadline {d1} vanished at {d2}")
            })?;
        }
        ensure(tight.wave_secs <= loose.wave_secs + 1e-12, || {
            format!(
                "raising the deadline shortened the wave: {} -> {}",
                tight.wave_secs, loose.wave_secs
            )
        })?;
        // Dropouts never survive any deadline.
        ensure(
            loose.dropouts.len() == timings.iter().filter(|t| t.dropped_out).count(),
            || "a dropout survived the deadline gate".to_string(),
        )
    });
}

// ---------------------------------------------------------------------------
// The allocation-free training hot path: in-place kernels and arena-backed epochs.
// ---------------------------------------------------------------------------

/// The seed's scalar matmul (i/k/j loop order, skip-zero), kept here as the independent
/// ground truth the in-place kernel family is checked against bit-for-bit.
fn scalar_matmul(a: &fmore::ml::Matrix, b: &fmore::ml::Matrix) -> fmore::ml::Matrix {
    let mut out = fmore::ml::Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a.get(i, k);
            if v == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + v * b.get(k, j));
            }
        }
    }
    out
}

/// A random matrix with exact zeros sprinkled in (to exercise the historical skip-zero
/// path) whose entries are deterministic in `seed`.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> fmore::ml::Matrix {
    let mut rng = fmore::numerics::seeded_rng(seed);
    let mut m = fmore::ml::Matrix::random_uniform(rows, cols, 1.0, &mut rng);
    m.map_inplace(|v| if v.abs() < 0.25 { 0.0 } else { v });
    m
}

/// Every member of the in-place matmul family is **bit-identical** to the scalar seed
/// kernel composed with explicit transposes, across random shapes (blocked and remainder
/// paths included) and into stale, wrongly-shaped output buffers.
#[test]
fn inplace_matmul_family_matches_allocating_composition_bitwise() {
    use fmore::ml::Matrix;
    let strategy = Tuple3(
        Tuple3(
            UsizeRange::new(1, 9),
            UsizeRange::new(1, 70),
            UsizeRange::new(1, 9),
        ),
        UsizeRange::new(0, 10_000),
        UsizeRange::new(0, 10_000),
    );
    check(
        &Config::seeded(0xB1),
        &strategy,
        |((m, k, n), seed_a, seed_b)| {
            let a = random_matrix(*m, *k, *seed_a as u64);
            let b = random_matrix(*k, *n, *seed_b as u64 + 1);
            let reference = scalar_matmul(&a, &b);
            // Stale, wrongly-shaped reused buffer.
            let mut out = Matrix::from_vec(1, 2, vec![9.0, -9.0]);
            a.matmul_into(&b, &mut out);
            ensure(out.data() == reference.data(), || {
                format!("matmul_into diverged from the scalar kernel at {m}x{k}x{n}")
            })?;
            ensure(a.matmul(&b).data() == reference.data(), || {
                "allocating matmul diverged from the scalar kernel".to_string()
            })?;
            // aᵀ·b without materialising the transpose.
            let at = random_matrix(*k, *m, *seed_a as u64 + 2);
            at.matmul_transpose_a_into(&b, &mut out);
            let ta_reference = scalar_matmul(&at.transpose(), &b);
            ensure(out.data() == ta_reference.data(), || {
                format!("matmul_transpose_a_into diverged at {k}x{m} vs {k}x{n}")
            })?;
            // a·bᵀ without an allocating transpose.
            let bt = random_matrix(*n, *k, *seed_b as u64 + 3);
            a.matmul_transpose_b_into(&bt, &mut out);
            let tb_reference = scalar_matmul(&a, &bt.transpose());
            ensure(out.data() == tb_reference.data(), || {
                format!("matmul_transpose_b_into diverged at {m}x{k} vs {n}x{k}")
            })
        },
    );
}

/// The arena-backed `train_epoch` follows the **pre-refactor parameter trajectory**
/// bit-for-bit on a seeded tiny MLP: `fmore_bench::baseline::NaiveMlp` replays the seed's
/// allocating kernels (skip-zero matmul, materialised transposes, clone-per-stage caches),
/// and every epoch must leave both models with identical parameters and losses.
#[test]
fn arena_train_epoch_matches_seed_trajectory_bitwise() {
    use fmore::ml::dataset::SyntheticImageSpec;
    use fmore::ml::layers::{Activation, Dense, Layer};
    use fmore::ml::model::Model;
    use fmore::ml::{ScratchArena, Sequential};
    use fmore_bench::baseline::NaiveMlp;
    let strategy = Tuple3(
        Tuple2(UsizeRange::new(4, 24), UsizeRange::new(1, 40)),
        UsizeRange::new(0, 10_000),
        UsizeRange::new(1, 30),
    );
    check(
        &Config::seeded(0xB2).with_cases(16),
        &strategy,
        |((hidden, batch), seed, lr_steps)| {
            let seed = *seed as u64;
            let learning_rate = *lr_steps as f64 * 0.01;
            let mut data_rng = fmore::numerics::seeded_rng(seed);
            let data = SyntheticImageSpec::mnist_like().generate(60, &mut data_rng);
            let all: Vec<usize> = (0..data.len()).collect();
            let mut build_rng = fmore::numerics::seeded_rng(seed + 1);
            let mut model = Sequential::new(vec![
                Box::new(Dense::new(data.feature_dim(), *hidden, &mut build_rng)) as Box<dyn Layer>,
                Box::new(Activation::relu()),
                Box::new(Dense::new(*hidden, data.num_classes(), &mut build_rng)),
            ]);
            let mut naive = NaiveMlp::from_params(
                data.feature_dim(),
                *hidden,
                data.num_classes(),
                &model.parameters(),
            );
            let mut arena = ScratchArena::new();
            let mut rng_arena = fmore::numerics::seeded_rng(seed + 2);
            let mut rng_naive = fmore::numerics::seeded_rng(seed + 2);
            for epoch in 0..2 {
                let la = model.train_epoch_in(
                    &mut arena,
                    &data,
                    &all,
                    learning_rate,
                    *batch,
                    &mut rng_arena,
                );
                let lb = naive.train_epoch(&data, &all, learning_rate, *batch, &mut rng_naive);
                ensure(la.to_bits() == lb.to_bits(), || {
                    format!("epoch {epoch} loss diverged: {la} vs {lb}")
                })?;
                ensure(model.parameters() == naive.parameters(), || {
                    format!(
                        "epoch {epoch} parameter trajectory diverged (hidden {hidden}, \
                         batch {batch}, lr {learning_rate})"
                    )
                })?;
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Population-scale selection: streaming must equal the dense full-sort path.
// ---------------------------------------------------------------------------

/// Builds the four auction schemes (selection × pricing) the workspace runs.
fn auction_schemes(k: usize) -> Vec<(&'static str, Auction)> {
    let rule = || ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap());
    vec![
        (
            "topk/first",
            Auction::new(rule(), k, SelectionRule::TopK, PricingRule::FirstPrice),
        ),
        (
            "topk/second",
            Auction::new(rule(), k, SelectionRule::TopK, PricingRule::SecondPrice),
        ),
        (
            "psi/first",
            Auction::new(
                rule(),
                k,
                SelectionRule::PsiFMore { psi: 0.6 },
                PricingRule::FirstPrice,
            ),
        ),
        (
            "psi/second",
            Auction::new(
                rule(),
                k,
                SelectionRule::PsiFMore { psi: 0.6 },
                PricingRule::SecondPrice,
            ),
        ),
    ]
}

/// Streaming top-K selection over a bounded selector is **bit-identical** to the dense
/// full-sort `rank_bids` path — winners, scores, and payments — across all four schemes,
/// duplicate-score tie populations, and `k ≥ n`. This test keeps a full-width pool
/// (`reserve = n`) so the standing order itself can be compared rank-by-rank against
/// `rank_bids`; plain top-K is additionally checked at a minimal reserve. Bounded-reserve
/// exactness for the ψ walk is pinned separately by
/// `bounded_psi_admission_is_bit_identical_to_full_sort` below.
#[test]
fn streaming_selection_is_bit_identical_to_full_sort() {
    use fmore::auction::{BidStore, SubmittedBid};
    let strategy = Tuple3(
        VecOf::new(
            Tuple2(F64Range::new(0.0, 1.0), F64Range::new(0.0, 0.5)),
            1,
            48,
        ),
        UsizeRange::new(1, 60),
        UsizeRange::new(0, 100_000),
    );
    check(&Config::seeded(0xB7), &strategy, |(rows, k, seed)| {
        // Quantise to a coarse grid so duplicate scores (exact ties) are common.
        let bids: Vec<SubmittedBid> = rows
            .iter()
            .enumerate()
            .map(|(i, &(q, ask))| {
                let q = (q * 4.0).round() / 4.0;
                let ask = (ask * 4.0).round() / 4.0;
                SubmittedBid::new(NodeId(i as u64), Quality::new(vec![q, 1.0 - q]), ask)
            })
            .collect();
        let n = bids.len();
        for (name, auction) in auction_schemes(*k) {
            let dense = auction
                .run(bids.clone(), &mut fmore::numerics::seeded_rng(*seed as u64))
                .map_err(|e| e.to_string())?;

            // Exact twin: reserve covers the whole population.
            let mut store = BidStore::with_dims(2);
            for bid in &bids {
                store
                    .push(bid.node, bid.quality.as_slice(), bid.ask)
                    .map_err(|e| e.to_string())?;
            }
            store
                .score_with(auction.scoring_rule())
                .map_err(|e| e.to_string())?;
            let mut rng = fmore::numerics::seeded_rng(*seed as u64);
            let mut selector = auction.selector(n);
            selector.offer_store(&store, &mut rng);
            let pool = selector.finish(&mut rng);
            ensure(pool.offered() == n && pool.len() == n, || {
                format!("{name}: keep-all selector lost candidates")
            })?;
            // The standing order IS the dense ranking.
            for (c, r) in pool.candidates().iter().zip(dense.ranked()) {
                ensure(
                    c.node == r.node
                        && c.score.to_bits() == r.score.to_bits()
                        && c.ask.to_bits() == r.ask.to_bits(),
                    || format!("{name}: standing order diverged from rank_bids"),
                )?;
            }
            let awards = auction.award_standing(&pool, *k, &[], &mut rng);
            ensure(awards.len() == dense.winners().len(), || {
                format!(
                    "{name}: {} streamed vs {} dense winners",
                    awards.len(),
                    dense.winners().len()
                )
            })?;
            for (a, d) in awards.iter().zip(dense.winners()) {
                ensure(
                    a.node == d.node
                        && a.score.to_bits() == d.score.to_bits()
                        && a.payment.to_bits() == d.payment.to_bits(),
                    || {
                        format!(
                            "{name}: winner diverged ({} pay {} vs {} pay {})",
                            a.node, a.payment, d.node, d.payment
                        )
                    },
                )?;
            }

            // Bounded twin: top-K stays exact with only one reserve candidate.
            if matches!(auction.selection_rule(), SelectionRule::TopK) {
                let mut rng = fmore::numerics::seeded_rng(*seed as u64);
                let mut bounded = auction.selector(1);
                bounded.offer_store(&store, &mut rng);
                let pool = bounded.finish(&mut rng);
                let awards = auction.award_standing(&pool, *k, &[], &mut rng);
                for (a, d) in awards.iter().zip(dense.winners()) {
                    ensure(
                        a.node == d.node && a.payment.to_bits() == d.payment.to_bits(),
                        || format!("{name}: bounded selector diverged on {}", a.node),
                    )?;
                }
                ensure(awards.len() == dense.winners().len(), || {
                    format!("{name}: bounded selector winner count diverged")
                })?;
            }
        }
        Ok(())
    });
}

/// The ψ admission **oracle** — a `K + 1`-deep pool, a [`ScoreHistogram`] count of every
/// score, the rank-only `plan_admission` walk, and (when the walk admits past the pool) a
/// [`RankRefiner`] stream for the missing ranks; the independent implementation the
/// benchmark's traced twin replays the production single-pass stage against — is
/// **bit-identical** to the dense full-sort `Auction::run` path, across
/// ψ ∈ {0.1, 0.5, 0.9, 1.0} × both pricing rules, duplicate-score tie populations, sharded
/// streams, and `k ≥ n`. The streamed side must also leave the round RNG at exactly the
/// dense path's position, so a seeded history cannot tell which path ran.
#[test]
fn bounded_psi_admission_is_bit_identical_to_full_sort() {
    use fmore::auction::{BidStore, RankRefiner, ScoreHistogram, SubmittedBid};
    use rand::Rng;
    let strategy = Tuple3(
        VecOf::new(
            Tuple2(F64Range::new(0.0, 1.0), F64Range::new(0.0, 0.5)),
            1,
            48,
        ),
        UsizeRange::new(1, 60),
        UsizeRange::new(0, 100_000),
    );
    check(&Config::seeded(0xB9), &strategy, |(rows, k, seed)| {
        // Coarse quantisation makes exact score ties common, exercising the tie-break keys
        // through both the histogram bins and the refinement probes.
        let bids: Vec<SubmittedBid> = rows
            .iter()
            .enumerate()
            .map(|(i, &(q, ask))| {
                let q = (q * 4.0).round() / 4.0;
                let ask = (ask * 4.0).round() / 4.0;
                SubmittedBid::new(NodeId(i as u64), Quality::new(vec![q, 1.0 - q]), ask)
            })
            .collect();
        let n = bids.len();
        // Shard the stream so refinement-pass base offsets are exercised.
        let shards: Vec<BidStore> = bids
            .chunks(7)
            .map(|chunk| {
                let mut store = BidStore::with_dims(2);
                for bid in chunk {
                    store.push(bid.node, bid.quality.as_slice(), bid.ask)?;
                }
                Ok::<_, AuctionError>(store)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for psi in [0.1, 0.5, 0.9, 1.0] {
            for pricing in [PricingRule::FirstPrice, PricingRule::SecondPrice] {
                let auction = Auction::new(
                    ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap()),
                    *k,
                    SelectionRule::PsiFMore { psi },
                    pricing,
                );
                let name = format!("psi={psi}/{pricing:?}");
                let mut dense_rng = fmore::numerics::seeded_rng(*seed as u64);
                let dense = auction
                    .run(bids.clone(), &mut dense_rng)
                    .map_err(|e| e.to_string())?;

                // Streamed twin at a deliberately tiny reserve: one standing candidate
                // beyond K, so deep ψ admissions must go through the refinement pass.
                let mut rng = fmore::numerics::seeded_rng(*seed as u64);
                let mut selector = auction.selector(1);
                let salt = (n >= 2).then(|| selector.force_salt(&mut rng));
                let mut histogram = ScoreHistogram::new();
                for store in &mut shards.clone() {
                    store
                        .score_with(auction.scoring_rule())
                        .map_err(|e| e.to_string())?;
                    histogram.record_store(store);
                    selector.offer_store(store, &mut rng);
                }
                let standing = selector.finish(&mut rng);
                let plan = auction.plan_admission(standing.offered(), *k, &mut rng);
                let mut needed: Vec<usize> = plan.picked.clone();
                needed.extend(plan.price_rank);
                needed.sort_unstable();
                needed.dedup();
                let deepest = *needed.last().expect("k >= 1 admits at least one rank");
                let awards: Vec<Award> = if deepest < standing.len() {
                    let best_losing = plan.price_rank.map(|r| standing.candidates()[r].score);
                    plan.picked
                        .iter()
                        .map(|&r| auction.award_candidate(&standing.candidates()[r], best_losing))
                        .collect()
                } else {
                    let salt = salt.expect("refinement implies >= 2 bids, so the salt exists");
                    let mut refiner = RankRefiner::new(&histogram, &needed, salt, 2);
                    let mut base = 0usize;
                    for store in &mut shards.clone() {
                        store
                            .score_with(auction.scoring_rule())
                            .map_err(|e| e.to_string())?;
                        refiner.offer_store(store, base);
                        base += store.len();
                    }
                    let ranked = refiner.into_ranked();
                    let at = |rank: usize| {
                        ranked
                            .get(rank)
                            .expect("every needed rank was counted and collected")
                    };
                    let best_losing = plan.price_rank.map(|r| at(r).score);
                    plan.picked
                        .iter()
                        .map(|&r| auction.award_candidate(at(r), best_losing))
                        .collect()
                };

                ensure(awards.len() == dense.winners().len(), || {
                    format!(
                        "{name}: {} streamed vs {} dense winners",
                        awards.len(),
                        dense.winners().len()
                    )
                })?;
                for (a, d) in awards.iter().zip(dense.winners()) {
                    ensure(
                        a.node == d.node
                            && a.score.to_bits() == d.score.to_bits()
                            && a.payment.to_bits() == d.payment.to_bits(),
                        || {
                            format!(
                                "{name}: winner diverged ({} pay {} vs {} pay {})",
                                a.node, a.payment, d.node, d.payment
                            )
                        },
                    )?;
                }
                // RNG-position parity: the bounded plan must consume exactly the words the
                // dense ranking + selection walk consumed.
                ensure(rng.gen::<u64>() == dense_rng.gen::<u64>(), || {
                    format!("{name}: streamed path left the round RNG at a different position")
                })?;
            }
        }
        Ok(())
    });
}

/// Turns raw draws into the score streams that stress the selector's admission floor.
/// Scores become bids under the one-dimensional `PerfectComplementary [1]` rule
/// (`S = q − ask`) as `q = max(s, ∓0)`, `ask = max(−s, 0)`, which reproduces `s` exactly —
/// including the sign of a zero, on the per-bid and the batched scoring path alike.
fn hostile_score_streams(raw: &[f64], shard: usize) -> Vec<(&'static str, Vec<f64>)> {
    let n = raw.len();
    let quantised: Vec<f64> = raw.iter().map(|v| (v * 4.0).round() / 4.0).collect();
    // Every bid beats the floor / no bid after the first `capacity` does.
    let ascending: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    let signed_zeros: Vec<f64> = (0..n)
        .map(|i| match i % 3 {
            0 => -0.0,
            1 => 0.0,
            _ => quantised[i],
        })
        .collect();
    // A run of top-score ties across the first shard boundary: tie-break keys alone decide
    // which of them the pool keeps, and the second shard's floor is one of the run.
    let mut straddle = quantised.clone();
    for s in straddle
        .iter_mut()
        .take(shard + 3)
        .skip(shard.saturating_sub(3))
    {
        *s = 2.0;
    }
    vec![
        ("quantised", quantised),
        ("ascending", ascending),
        ("descending", descending),
        ("all-equal", vec![0.75; n]),
        ("signed-zeros", signed_zeros),
        ("tie-straddle", straddle),
    ]
}

/// How the streamed-stage tests below map an award onto a winner.
fn streamed_winner(award: &Award) -> fmore::fl::metrics::WinnerInfo {
    fmore::fl::metrics::WinnerInfo {
        client: award.node.0 as usize,
        node: award.node,
        data_size: 1,
        categories: 1,
        score: award.score,
        payment: award.payment,
    }
}

/// One hostile round three ways — dense `Auction::run`, sequential `BidSelector::offer`,
/// and `auction_select_streamed` on each engine — compared on pool order, tie-break keys,
/// best dropped score, winners, payments and the post-round RNG position. With `omitted`,
/// the streamed fill leaves out exactly the bids whose true score lies below its store's
/// omit bound, and counts them there.
fn hostile_round_agrees(
    name: &str,
    auction: &Auction,
    bids: &std::sync::Arc<Vec<fmore::auction::SubmittedBid>>,
    (reserve, shard, seed): (usize, usize, u64),
    engines: &[fmore::fl::engine::RoundEngine],
    omitted: Option<&std::sync::Arc<std::sync::atomic::AtomicUsize>>,
) -> Result<(), String> {
    use fmore::auction::BidStore;
    use fmore::fl::engine::auction_select_streamed;
    use rand::Rng;
    let n = bids.len();
    let mut dense_rng = fmore::numerics::seeded_rng(seed);
    let dense = auction
        .run(bids.as_ref().clone(), &mut dense_rng)
        .map_err(|e| e.to_string())?;
    let dense_position = dense_rng.gen::<u64>();
    let kept = (auction.winners_per_round() + reserve).min(n);
    let dense_dropped = dense.ranked()[kept..]
        .iter()
        .map(|r| r.score)
        .reduce(f64::max);

    // Sequential twin: one store, one `offer` per bid.
    let mut store = BidStore::with_dims(1);
    for bid in bids.iter() {
        store
            .push(bid.node, bid.quality.as_slice(), bid.ask)
            .map_err(|e| e.to_string())?;
    }
    store
        .score_with(auction.scoring_rule())
        .map_err(|e| e.to_string())?;
    for (i, bid) in bids.iter().enumerate() {
        let per_bid = auction.scoring_rule().score(&bid.quality, bid.ask);
        ensure(
            per_bid.is_ok_and(|s| s.to_bits() == store.score(i).to_bits()),
            || format!("{name}: batch score {i} lost the stream's bits"),
        )?;
    }
    let mut seq_rng = fmore::numerics::seeded_rng(seed);
    let mut selector = auction.selector(reserve);
    selector.offer_store(&store, &mut seq_rng);
    let sequential = selector.finish(&mut seq_rng);
    ensure(sequential.len() == kept, || {
        format!("{name}: sequential pool kept {}", sequential.len())
    })?;
    for (c, r) in sequential.candidates().iter().zip(dense.ranked()) {
        ensure(
            c.node == r.node && c.score.to_bits() == r.score.to_bits(),
            || format!("{name}: sequential pool diverged from rank_bids"),
        )?;
    }
    ensure(sequential.best_dropped_score() == dense_dropped, || {
        format!("{name}: sequential best-dropped diverged from the dense tail")
    })?;
    let mut burn = fmore::numerics::seeded_rng(seed);
    for _ in 0..n.saturating_sub(1) {
        let _ = burn.gen::<u64>();
    }
    ensure(seq_rng.gen::<u64>() == burn.gen::<u64>(), || {
        format!("{name}: sequential selection left the RNG elsewhere")
    })?;

    for engine in engines {
        let name = format!("{name}/width={}", engine.parallel_width());
        let source = std::sync::Arc::clone(bids);
        let omitting =
            omitted.map(|count| (std::sync::Arc::clone(count), auction.scoring_rule().clone()));
        let fill = move |range: std::ops::Range<usize>, store: &mut BidStore| {
            let Some((count, rule)) = &omitting else {
                for bid in &source[range] {
                    store.push(bid.node, bid.quality.as_slice(), bid.ask)?;
                }
                return Ok(());
            };
            let bound = store.omit_bound();
            let mut kept = Vec::new();
            for (j, bid) in source[range.clone()].iter().enumerate() {
                let score = rule.score(&bid.quality, bid.ask)?;
                if !bound.is_some_and(|bound| score < bound) {
                    kept.push(j as u32);
                }
            }
            count.fetch_add(
                range.len() - kept.len(),
                std::sync::atomic::Ordering::Relaxed,
            );
            // Node ids are stream positions here, as the sparse append assumes.
            store.extend_trusted_at(range.start as u64, &kept, range.len(), |qualities, asks| {
                for ((quality, ask), &j) in qualities.iter_mut().zip(asks.iter_mut()).zip(&kept) {
                    let bid = &source[range.start + j as usize];
                    *quality = bid.quality.as_slice()[0];
                    *ask = bid.ask;
                }
                Ok(())
            })
        };
        let mut rng = fmore::numerics::seeded_rng(seed);
        let streamed = auction_select_streamed(
            auction,
            n,
            shard,
            reserve,
            engine,
            std::sync::Arc::new(fill),
            &mut rng,
            streamed_winner,
        )
        .map_err(|e| e.to_string())?;
        // Same nodes, scores and keys in the same order (`==` on the candidates' floats
        // forgives only the sign of a zero, and the node pins which zero it is).
        ensure(
            streamed.standing.candidates() == sequential.candidates()
                && streamed.standing.offered() == n,
            || format!("{name}: wave pool diverged from sequential"),
        )?;
        ensure(
            streamed.standing.best_dropped_score() == dense_dropped,
            || format!("{name}: best-dropped score diverged"),
        )?;
        ensure(streamed.winners.len() == dense.winners().len(), || {
            format!("{name}: winner count diverged")
        })?;
        for (w, d) in streamed.winners.iter().zip(dense.winners()) {
            ensure(
                w.node == d.node
                    && w.score.to_bits() == d.score.to_bits()
                    && w.payment == d.payment,
                || {
                    format!(
                        "{name}: winner diverged ({} pay {} vs {} pay {})",
                        w.node, w.payment, d.node, d.payment
                    )
                },
            )?;
        }
        ensure(rng.gen::<u64>() == dense_position, || {
            format!("{name}: round left the RNG elsewhere")
        })?;
    }
    Ok(())
}

/// The floor-carried wave selection of `auction_select_streamed` ≡ the sequential
/// `BidSelector::offer` path ≡ the dense full sort (see [`hostile_round_agrees`]) over
/// streams built to break an admission floor (see [`hostile_score_streams`]), at shard
/// size 1, pools of one candidate (`K = 1`, reserve 0) and pools wider than the
/// population, and engine widths 1/2/4 (inside a wave every shard after the first scans
/// against a stale floor), for top-K and ψ-FMore (ψ from 0.05 to 1) under both pricing
/// rules; the signed-zero stream runs under `Additive` as well as `PerfectComplementary`. The sign of a
/// zero-valued best-dropped score or payment is the one thing left unpinned: `rank_order`
/// treats `±0.0` as equal, and no fold over the losers' scores orders them.
#[test]
fn floor_carried_selection_matches_sequential_and_dense_on_hostile_streams() {
    hostile_streams_agree(0xF1, None);
}

/// The omission contract of the streamed stage, apart from any score ceiling: a fill that
/// leaves out exactly the bids scoring below its store's omit bound (the round's best
/// dropped score as of the wave) yields the pool, best dropped score, offered count,
/// winners, payments and RNG position of the sequential selector and the dense sort —
/// over the hostile streams, shard size 1, engine widths 1/2/4, `K = 1` with reserve 0,
/// and top-K plus ψ from 0.05 to 1 under both pricing rules. The kept bids' keys must
/// come from their stream positions: keyed by their index in the store, the pools
/// diverge.
#[test]
fn omitting_fill_matches_sequential_and_dense_on_hostile_streams() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let omitted = std::sync::Arc::new(AtomicUsize::new(0));
    hostile_streams_agree(0xF3, Some(&omitted));
    assert!(
        omitted.load(Ordering::Relaxed) > 0,
        "no bid was ever omitted"
    );
}

/// The body of the two hostile-stream properties above.
fn hostile_streams_agree(
    seed: u64,
    omitted: Option<&std::sync::Arc<std::sync::atomic::AtomicUsize>>,
) {
    use fmore::auction::SubmittedBid;
    use fmore::fl::engine::RoundEngine;
    use std::sync::Arc;
    let engines = [
        RoundEngine::inline(),
        RoundEngine::pooled(2),
        RoundEngine::pooled(4),
    ];
    let widths: Vec<usize> = engines.iter().map(RoundEngine::parallel_width).collect();
    assert_eq!(widths, [1, 2, 4]);
    // ψ from a walk that wanders the whole of these 40-bid populations (0.05) to one that
    // stops at rank K (1.0, whose pricing rank K is past a reserve of 0): whatever depth
    // the stage sizes its selector to, the pool it returns is the `K + reserve` one.
    let selections = [
        SelectionRule::TopK,
        SelectionRule::PsiFMore { psi: 0.05 },
        SelectionRule::PsiFMore { psi: 0.25 },
        SelectionRule::PsiFMore { psi: 0.6 },
        SelectionRule::PsiFMore { psi: 1.0 },
    ];
    let schemes = selections.iter().flat_map(|&selection| {
        [PricingRule::FirstPrice, PricingRule::SecondPrice].map(|pricing| (selection, pricing))
    });
    let strategy = Tuple3(
        VecOf::new(F64Range::new(-1.0, 1.0), 1, 40),
        Tuple3(
            UsizeRange::new(1, 12),
            UsizeRange::new(0, 6),
            UsizeRange::new(2, 9),
        ),
        UsizeRange::new(0, 100_000),
    );
    check(
        &Config::seeded(seed),
        &strategy,
        |(raw, (k, reserve, shard), seed)| {
            let n = raw.len();
            for (stream, scores) in hostile_score_streams(raw, *shard) {
                let bids: Vec<SubmittedBid> = scores
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let zero = if s.is_sign_negative() { -0.0 } else { 0.0 };
                        let quality = Quality::new(vec![if s > 0.0 { s } else { zero }]);
                        SubmittedBid::new(NodeId(i as u64), quality, (-s).max(0.0))
                    })
                    .collect();
                let bids = Arc::new(bids);
                // `Additive [1]` is `0.0 + q − ask`: the same scores up to the sign of a
                // zero (a `−0.0` quality sums to `+0.0`), so it takes the one stream where
                // its per-bid and batch folds could disagree.
                let complementary = PerfectComplementary::new(vec![1.0]).unwrap();
                let additive = Additive::new(vec![1.0]).unwrap();
                let mut rules = vec![("min", ScoringRule::new(complementary), true)];
                if stream == "signed-zeros" {
                    rules.push(("sum", ScoringRule::new(additive), false));
                }
                for (rule_name, rule, bitwise) in rules {
                    for (i, bid) in bids.iter().enumerate() {
                        let score = rule
                            .score(&bid.quality, bid.ask)
                            .map_err(|e| e.to_string())?;
                        let reproduced = match bitwise {
                            true => score.to_bits() == scores[i].to_bits(),
                            false => score == scores[i],
                        };
                        ensure(reproduced, || {
                            format!("{stream}/{rule_name}: the bid encoding lost score {i}")
                        })?;
                    }
                    for (k, reserve, shard) in
                        [(*k, *reserve, *shard), (1, 0, 1), (n + 2, 3, *shard)]
                    {
                        for (selection, pricing) in schemes.clone() {
                            let auction = Auction::new(rule.clone(), k, selection, pricing);
                            let name = format!(
                                "{stream}/{rule_name}/{selection:?}/{pricing:?}/k={k}/r={reserve}"
                            );
                            let geometry = (reserve, shard, *seed as u64);
                            hostile_round_agrees(
                                &name, &auction, &bids, geometry, &engines, omitted,
                            )?;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// The held-list entry point `auction_select` — the streamed selector over one in-memory
/// shard — against the full-sort reference `Auction::run` on hostile input: NaN, ±∞,
/// negative, −0.0 and subnormal qualities and asks, wrong dimensions, empty lists,
/// duplicate node ids, K = 0, K > N, and ψ outside (0, 1], under three scoring families and
/// both pricing rules. Either both fail with the same error, or they agree bit for bit on
/// the winners, their payments, every score in rank order, and the next word of the round
/// RNG. Neither may panic.
#[test]
fn held_bid_selection_matches_the_full_sort_on_hostile_input() {
    use fmore::fl::engine::auction_select;
    use rand::Rng;
    /// A quality or ask: mostly well-formed, many of them tied or signed zeros.
    fn value(i: usize) -> f64 {
        match i {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.5,
            _ => [
                0.0,
                -0.0,
                5e-324,
                f64::MIN_POSITIVE / 3.0,
                f64::MIN_POSITIVE,
                0.25,
                0.5,
                1.0,
            ][i % 8],
        }
    }
    let selections = [
        SelectionRule::TopK,
        SelectionRule::PsiFMore { psi: 0.0 },
        SelectionRule::PsiFMore { psi: 1.5 },
        SelectionRule::PsiFMore { psi: f64::NAN },
        SelectionRule::PsiFMore { psi: 1.0 },
        SelectionRule::PsiFMore { psi: 0.3 },
        SelectionRule::PsiFMore { psi: 0.7 },
        SelectionRule::PsiFMore { psi: -0.5 },
    ];
    // Per bid: three quality draws, the ask and the dimension (1 and 3 are wrong, each one
    // time in forty), and a node id from a small range, so duplicates are common.
    let bid = Tuple3(
        Tuple3(
            UsizeRange::new(0, 255),
            UsizeRange::new(0, 255),
            UsizeRange::new(0, 255),
        ),
        Tuple2(UsizeRange::new(0, 255), UsizeRange::new(0, 39)),
        UsizeRange::new(0, 5),
    );
    let strategy = Tuple3(
        VecOf::new(bid, 0, 12),
        Tuple3(
            UsizeRange::new(0, 14),
            UsizeRange::new(0, selections.len() - 1),
            UsizeRange::new(0, 5),
        ),
        UsizeRange::new(0, 100_000),
    );
    check(
        &Config::seeded(0xF7).with_cases(2048),
        &strategy,
        |(rows, (k, rule, scheme), seed)| {
            let bids: Vec<SubmittedBid> = rows
                .iter()
                .map(|&((a, b, c), (ask, dims), node)| {
                    let dims = match dims {
                        0 => 1,
                        1 => 3,
                        _ => 2,
                    };
                    let quality = [a, b, c][..dims].iter().map(|&i| value(i)).collect();
                    SubmittedBid::new(NodeId(node as u64), Quality::new(quality), value(ask))
                })
                .collect();
            let scoring = match scheme % 3 {
                0 => ScoringRule::new(Additive::new(vec![1.0, 0.5]).unwrap()),
                1 => ScoringRule::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap()),
                _ => ScoringRule::new(PerfectComplementary::new(vec![1.0, 1.0]).unwrap()),
            };
            let pricing = match scheme / 3 {
                0 => PricingRule::FirstPrice,
                _ => PricingRule::SecondPrice,
            };
            let selection = selections[*rule];
            let auction = Auction::new(scoring, *k, selection, pricing);
            let name = format!("scheme={scheme} {selection:?} k={k} n={}", bids.len());
            let mut dense_rng = fmore::numerics::seeded_rng(*seed as u64);
            let dense = auction.run(bids.clone(), &mut dense_rng);
            let mut rng = fmore::numerics::seeded_rng(*seed as u64);
            let held = auction_select(&auction, bids, &mut rng, streamed_winner);
            match (dense, held) {
                (Err(dense), Err(held)) => ensure(dense == held, || {
                    format!("{name}: errors differ: {dense:?} vs {held:?}")
                }),
                (Ok(dense), Ok((winners, scores))) => {
                    ensure(winners.len() == dense.winners().len(), || {
                        format!("{name}: winner count diverged")
                    })?;
                    for (w, d) in winners.iter().zip(dense.winners()) {
                        ensure(
                            w.node == d.node
                                && w.score.to_bits() == d.score.to_bits()
                                && w.payment.to_bits() == d.payment.to_bits(),
                            || {
                                format!(
                                    "{name}: winner diverged ({} pay {} vs {} pay {})",
                                    w.node, w.payment, d.node, d.payment
                                )
                            },
                        )?;
                    }
                    let ranked: Vec<u64> =
                        dense.ranked().iter().map(|b| b.score.to_bits()).collect();
                    let held: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                    ensure(held == ranked, || format!("{name}: scores diverged"))?;
                    ensure(rng.gen::<u64>() == dense_rng.gen::<u64>(), || {
                        format!("{name}: the round left the RNG elsewhere")
                    })
                }
                (dense, held) => Err(format!("{name}: one path failed: {dense:?} vs {held:?}")),
            }
        },
    );
}

/// "A ψ round streams the population once", as a count: 100 000 v1 bidders, `K = 64`,
/// reserve 64, shards of 8 192 — the filler runs 13 times a round, on every one of 100
/// round seeds, at ψ = 0.25 (a 424-deep selector), 0.5 (197) and 0.8 (128, the caller's
/// own `K + reserve`). The stage hands back the 128-deep pool whatever it ran at, and its
/// peak stays one shard store plus the walk's reach in candidates; at ψ = 0.8 that is the
/// top-K round's figure to the byte.
#[test]
fn psi_round_streams_the_population_once_and_returns_the_callers_pool() {
    use fmore::auction::{BidStore, Candidate};
    use fmore::fl::engine::{auction_select_streamed, RoundEngine};
    use fmore::mec::population::{NodePopulation, PopulationSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let (n, k, reserve, shard) = (100_000usize, 64usize, 64usize, 8_192usize);
    let shards = n.div_ceil(shard);
    assert_eq!(shards, 13);
    // The v1 pipeline derives the population once; the counting filler then copies each
    // shard's columns from that (a debug build derives 3 × 10⁷ bids in half a minute).
    let population = NodePopulation::new(PopulationSpec::scale_default(n, 0x5EED)).unwrap();
    let mut derived = BidStore::with_capacity(3, n);
    population
        .bid_range_into_store(0..n, 0, &population_solver(n), &mut derived)
        .unwrap();
    let qualities: Vec<f64> = (0..n)
        .flat_map(|i| derived.quality(i).iter().copied())
        .collect();
    let asks: Vec<f64> = (0..n).map(|i| derived.ask(i)).collect();
    assert!((0..n).all(|i| derived.node(i) == NodeId(i as u64)));
    let fills = Arc::new(AtomicUsize::new(0));
    let fill = {
        let fills = Arc::clone(&fills);
        Arc::new(move |range: std::ops::Range<usize>, store: &mut BidStore| {
            fills.fetch_add(1, Ordering::Relaxed);
            store.extend_trusted_with(range.start as u64..range.end as u64, |quality, ask| {
                quality.copy_from_slice(&qualities[range.start * 3..range.end * 3]);
                ask.copy_from_slice(&asks[range]);
                Ok(())
            })
        })
    };
    let shard_bytes = shard * (8 + 8 * (3 + 1 + 1));
    let candidate_bytes = std::mem::size_of::<Candidate>() + 3 * 8;
    let round = |selection: SelectionRule, seed: u64| {
        let auction = Auction::new(
            ScoringRule::new(Additive::new(vec![0.4, 0.3, 0.3]).unwrap()),
            k,
            selection,
            PricingRule::FirstPrice,
        );
        fills.store(0, Ordering::Relaxed);
        let stage = auction_select_streamed(
            &auction,
            n,
            shard,
            reserve,
            &RoundEngine::inline(),
            Arc::clone(&fill),
            &mut fmore::numerics::seeded_rng(seed),
            streamed_winner,
        )
        .unwrap();
        let name = format!("{selection:?} seed={seed}");
        assert_eq!(fills.load(Ordering::Relaxed), shards, "{name}: fill calls");
        assert_eq!(stage.winners.len(), k, "{name}");
        assert_eq!(stage.offered, n, "{name}");
        assert_eq!(stage.standing.len(), k + reserve, "{name}");
        let depth = (k + reserve).max(selection.reach(k) + 1);
        assert!(
            stage.peak_bid_bytes <= shard_bytes + depth * candidate_bytes,
            "{name}: peak {} B",
            stage.peak_bid_bytes
        );
        stage.peak_bid_bytes
    };
    let top_k_peak = round(SelectionRule::TopK, 0);
    assert_eq!(top_k_peak, shard_bytes + (k + reserve) * candidate_bytes);
    for psi in [0.25, 0.5, 0.8] {
        for seed in 0..100 {
            let peak = round(SelectionRule::PsiFMore { psi }, seed);
            if psi == 0.8 {
                assert_eq!(peak, top_k_peak, "seed={seed}");
            }
        }
    }
}

/// The columnar `score_batch` kernels are **bit-identical** to the per-bid
/// `ScoringRule::score` path for every scoring family — Additive, PerfectComplementary,
/// CobbDouglas (unit and curved exponents), and `NormalizedScoring` wrapping each — both
/// through the rule-level batch call and through `BidStore::score_with`, on arbitrary bid
/// populations.
#[test]
fn score_batch_is_bit_identical_to_per_bid_scoring() {
    use fmore::auction::BidStore;
    // Two resource dimensions on deliberately different scales (the normalised rules get
    // ranges matching the generators, as in the paper's walk-through).
    let strategy = VecOf::new(
        Tuple3(
            F64Range::new(0.0, 5_000.0),
            F64Range::new(0.0, 100.0),
            F64Range::new(0.0, 2.0),
        ),
        1,
        60,
    );
    let ranges = vec![(1_000.0, 5_000.0), (5.0, 100.0)];
    let rules: Vec<(&str, ScoringRule)> = vec![
        (
            "additive",
            ScoringRule::new(Additive::new(vec![0.4, 0.6]).unwrap()),
        ),
        (
            "complementary",
            ScoringRule::new(PerfectComplementary::new(vec![0.5, 0.5]).unwrap()),
        ),
        (
            "cobb-unit",
            ScoringRule::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap()),
        ),
        (
            "cobb-curved",
            ScoringRule::new(CobbDouglas::with_scale(2.0, vec![0.5, 1.5]).unwrap()),
        ),
        (
            "normalized-additive",
            ScoringRule::new(
                NormalizedScoring::new(Additive::new(vec![0.4, 0.6]).unwrap(), ranges.clone())
                    .unwrap(),
            ),
        ),
        (
            "normalized-complementary",
            ScoringRule::new(
                NormalizedScoring::new(
                    PerfectComplementary::new(vec![0.5, 0.5]).unwrap(),
                    ranges.clone(),
                )
                .unwrap(),
            ),
        ),
        (
            "normalized-cobb",
            ScoringRule::new(
                NormalizedScoring::new(
                    CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap(),
                    ranges.clone(),
                )
                .unwrap(),
            ),
        ),
    ];
    check(&Config::seeded(0xC4), &strategy, |rows| {
        let n = rows.len();
        let mut qualities = Vec::with_capacity(n * 2);
        let mut asks = Vec::with_capacity(n);
        for &(q1, q2, ask) in rows {
            qualities.extend_from_slice(&[q1, q2]);
            asks.push(ask);
        }
        for (name, rule) in &rules {
            // Reference: the per-bid quasi-linear score.
            let per_bid: Vec<f64> = rows
                .iter()
                .map(|&(q1, q2, ask)| {
                    rule.score(&Quality::new(vec![q1, q2]), ask)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            // Rule-level batch sweep.
            let mut batch = vec![0.0; n];
            rule.score_batch(&qualities, &asks, &mut batch)
                .map_err(|e| e.to_string())?;
            for (i, (b, p)) in batch.iter().zip(&per_bid).enumerate() {
                ensure(b.to_bits() == p.to_bits(), || {
                    format!("{name}: batch score {b} != per-bid {p} at bid {i}")
                })?;
            }
            // Store-level wiring: `score_with` fills the same bits.
            let mut store = BidStore::with_dims(2);
            for (i, &(q1, q2, ask)) in rows.iter().enumerate() {
                store
                    .push(NodeId(i as u64), &[q1, q2], ask)
                    .map_err(|e| e.to_string())?;
            }
            store.score_with(rule).map_err(|e| e.to_string())?;
            for (i, p) in per_bid.iter().enumerate() {
                ensure(store.score(i).to_bits() == p.to_bits(), || {
                    format!(
                        "{name}: store score {} != per-bid {p} at bid {i}",
                        store.score(i)
                    )
                })?;
            }
        }
        Ok(())
    });
}

/// The log-space `psi_fill_probability` agrees with the direct product form (the
/// pre-hardening implementation) to ~1e-12 on small inputs, and stays finite and sane at
/// population scales where the direct form overflows.
#[test]
fn psi_fill_probability_log_space_matches_direct_form() {
    use fmore::auction::winner::psi_fill_probability;
    // The direct product form, valid only while C(i+K-1, i) fits in f64.
    fn direct(n: usize, k: usize, psi: f64) -> f64 {
        let mut total = 0.0;
        let mut binom = 1.0_f64;
        for i in 0..=(n - k) {
            if i > 0 {
                binom *= (i + k - 1) as f64 / i as f64;
            }
            total += binom * (1.0 - psi).powi(i as i32) * psi.powi(k as i32);
        }
        total.min(1.0)
    }
    let strategy = Tuple3(
        UsizeRange::new(1, 40),
        UsizeRange::new(1, 40),
        F64Range::new(0.01, 0.99),
    );
    check(&Config::seeded(0xB8), &strategy, |(n, k, psi)| {
        let (n, k) = (*n.max(k), *k.min(n));
        let log_space = psi_fill_probability(n, k, *psi);
        let reference = direct(n, k, *psi);
        ensure((log_space - reference).abs() < 1e-12, || {
            format!("n={n} k={k} psi={psi}: log-space {log_space} vs direct {reference}")
        })
    });

    // Population scale: the direct form's binomial overflows (inf · 0 = NaN); the log-space
    // form stays exact-ish and monotone in ψ.
    let at_scale = psi_fill_probability(1_000_000, 64, 0.5);
    assert!(at_scale.is_finite() && at_scale > 0.999, "got {at_scale}");
    let low = psi_fill_probability(1_000_000, 64, 1e-4);
    assert!(low.is_finite() && (0.0..=1.0).contains(&low));
    assert!(psi_fill_probability(1_000_000, 64, 0.9) >= at_scale - 1e-12);
}

/// The scale game's tabulated solver at the population's θ support — the property twin of
/// the `ScaleGame` construction, sized down for per-case tabulation.
fn population_solver(n: usize) -> EquilibriumSolver {
    population_solver_on(n, 3, (0.1, 0.9))
}

/// [`population_solver`] with the first `dims` of its three dimensions and another θ
/// support.
fn population_solver_on(n: usize, dims: usize, support: (f64, f64)) -> EquilibriumSolver {
    EquilibriumSolver::builder()
        .scoring(Additive::new(vec![0.4, 0.3, 0.3][..dims].to_vec()).unwrap())
        .cost(LinearCost::new(vec![0.3, 0.3, 0.4][..dims].to_vec()).unwrap())
        .theta(UniformDist::new(support.0, support.1).unwrap())
        .bounds(vec![(0.0, 1.0); dims])
        .population(n)
        .winners(8.min(n))
        .grid_size(64)
        .build()
        .unwrap()
}

/// The fused `bid_into` is **bit-identical** to the decomposed
/// `theta` → `quality_into` → `tabulated_bid_into` sequence under both stream contracts —
/// the v1 guarantee that made the fusion safe for committed goldens, and the v2 guarantee
/// that the single-stream derivation computes the same bid the decomposed accessors
/// describe. `materialize` must agree on θ as well.
#[test]
fn bid_into_is_bit_identical_to_decomposed_derivation() {
    use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
    let strategy = Tuple3(
        UsizeRange::new(1, 200),
        UsizeRange::new(0, 5),
        UsizeRange::new(0, 100_000),
    );
    check(&Config::seeded(0xD1), &strategy, |(n, round, seed)| {
        let solver = population_solver(*n);
        let round = *round as u64;
        for version in [SpecVersion::V1, SpecVersion::V2] {
            let spec = PopulationSpec::scale_default(*n, *seed as u64).with_version(version);
            let population = NodePopulation::new(spec).map_err(|e| e.to_string())?;
            let (mut cap, mut qual) = (Vec::new(), Vec::new());
            let (mut cap2, mut qual2) = (Vec::new(), Vec::new());
            for i in (0..*n).step_by(1 + n / 16) {
                let ask = population
                    .bid_into(i, round, &solver, &mut cap, &mut qual)
                    .map_err(|e| e.to_string())?;
                let theta = population.theta(i);
                population.quality_into(i, round, &mut cap2);
                let ask2 = solver
                    .tabulated_bid_into(theta, &cap2, &mut qual2)
                    .map_err(|e| e.to_string())?;
                ensure(
                    population.materialize(i).theta().to_bits() == theta.to_bits(),
                    || format!("{version:?}: materialize θ drifted at node {i}"),
                )?;
                ensure(ask.to_bits() == ask2.to_bits(), || {
                    format!("{version:?}: fused ask {ask} != decomposed {ask2} at node {i}")
                })?;
                ensure(
                    cap.iter()
                        .map(|v| v.to_bits())
                        .eq(cap2.iter().map(|v| v.to_bits())),
                    || format!("{version:?}: capacity drifted at node {i}: {cap:?} vs {cap2:?}"),
                )?;
                ensure(
                    qual.iter()
                        .map(|v| v.to_bits())
                        .eq(qual2.iter().map(|v| v.to_bits())),
                    || format!("{version:?}: quality drifted at node {i}: {qual:?} vs {qual2:?}"),
                )?;
            }
        }
        Ok(())
    });
}

/// One `bid_range_into_store` call against its reference, the per-node `bid_into` +
/// `push_trusted` loop: the same bids appended, bit for bit.
fn shard_fill_matches_per_node_bids(
    population: &fmore::mec::population::NodePopulation,
    solver: &EquilibriumSolver,
    range: std::ops::Range<usize>,
    round: u64,
) -> Result<(), String> {
    use fmore::auction::BidStore;
    let name = format!("{:?} {range:?} round {round}", population.spec().version);
    let mut streamed = BidStore::with_dims(3);
    population
        .bid_range_into_store(range.clone(), round, solver, &mut streamed)
        .map_err(|e| format!("{name}: {e}"))?;
    let mut reference = BidStore::with_dims(3);
    let (mut cap, mut qual) = (Vec::new(), Vec::new());
    for i in range {
        let ask = population
            .bid_into(i, round, solver, &mut cap, &mut qual)
            .map_err(|e| format!("{name}: {e}"))?;
        reference.push_trusted(NodeId(i as u64), &qual, ask);
    }
    ensure(streamed.len() == reference.len(), || {
        format!("{name}: {} bids vs {}", streamed.len(), reference.len())
    })?;
    for j in 0..streamed.len() {
        ensure(
            streamed.node(j) == reference.node(j)
                && streamed.ask(j).to_bits() == reference.ask(j).to_bits()
                && streamed.score(j).to_bits() == reference.score(j).to_bits()
                && streamed
                    .quality(j)
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(reference.quality(j).iter().map(|v| v.to_bits())),
            || format!("{name}: bid {j} drifted"),
        )?;
    }
    Ok(())
}

/// The sharded columnar bid path — `bid_range_into_store`, one pipeline of SIMD-tiered
/// derivation, batched grid lookup and batched table tail for both stream contracts —
/// appends exactly the bids the per-node `bid_into` + `push_trusted` loop would,
/// bit-for-bit: on random populations and shard-boundary range shapes, and on a fixed
/// sweep of what the columnar v1 derivation could get wrong — every subset of degenerate
/// resource ranges (a skipped draw shifts which generator word feeds the later
/// dimensions), shard lengths around the 8-lane vector body from unaligned starts (each
/// shard follows a shorter one on the same thread scratch, and the shortest the longest),
/// the extreme rounds, and a θ support a few ulps wide, where the exclusive-top clamp
/// fires for a sixth of the nodes. CI's scalar-only job runs this too, which is what
/// proves each tier bit-identical.
#[test]
fn bid_range_into_store_matches_per_node_bids_bitwise() {
    use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
    let versions = [SpecVersion::V1, SpecVersion::V2];
    let strategy = Tuple3(
        UsizeRange::new(1, 300),
        UsizeRange::new(0, 3),
        UsizeRange::new(0, 100_000),
    );
    check(&Config::seeded(0xD2), &strategy, |(n, round, seed)| {
        let solver = population_solver(*n);
        for version in versions {
            let spec = PopulationSpec::scale_default(*n, *seed as u64).with_version(version);
            let population = NodePopulation::new(spec).map_err(|e| e.to_string())?;
            // Cover an empty range, a mid-range shard, and the full population.
            for range in [0..0, n / 3..(2 * n / 3).max(n / 3), 0..*n] {
                shard_fill_matches_per_node_bids(&population, &solver, range, *round as u64)?;
            }
        }
        Ok(())
    });

    const SIZE: usize = 8_300;
    const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 8_191];
    let solver = population_solver(SIZE);
    let sweep = |spec: PopulationSpec, solver: &EquilibriumSolver, rounds: &[u64]| {
        for version in versions {
            let population = NodePopulation::new(spec.with_version(version)).unwrap();
            for (r, &round) in rounds.iter().enumerate() {
                for (l, len) in LENGTHS.into_iter().enumerate() {
                    let start = 1 + 2 * l + 16 * r;
                    shard_fill_matches_per_node_bids(
                        &population,
                        solver,
                        start..start + len,
                        round,
                    )
                    .unwrap_or_else(|e| panic!("{:?} {:?}: {e}", spec.ranges, spec.theta_range));
                }
            }
        }
    };
    for degenerate in 0..8u32 {
        let mut spec = PopulationSpec::scale_default(SIZE, 0xD2 + u64::from(degenerate));
        let pin = |bit: u32, range: &mut (f64, f64)| {
            if degenerate & (1 << bit) != 0 {
                range.0 = range.1;
            }
        };
        pin(0, &mut spec.ranges.cpu_cores);
        pin(1, &mut spec.ranges.bandwidth_mbps);
        pin(2, &mut spec.ranges.data_size);
        sweep(spec, &solver, &[0, 1, u64::MAX]);
    }
    let mut narrow = PopulationSpec::scale_default(SIZE, 0xD2);
    narrow.theta_range = (0.5, f64::from_bits(0.5f64.to_bits() + 3));
    let narrow_solver = population_solver_on(SIZE, 3, narrow.theta_range);
    let v1 = NodePopulation::new(narrow).unwrap();
    let clamped = (0..SIZE)
        .filter(|&i| v1.theta(i) == narrow.theta_range.1)
        .count();
    assert!(clamped > SIZE / 10, "only {clamped} clamped θ draws");
    sweep(narrow, &narrow_solver, &[0]);
}

/// The error contract of `bid_range_into_store` under both stream contracts: a solver of
/// the wrong dimension and a θ outside the solver's support are typed errors that leave
/// every column of the store as it was.
#[test]
fn bid_range_into_store_errors_leave_the_store_unchanged() {
    use fmore::auction::{AuctionError, BidStore};
    use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
    let two_dimensional = population_solver_on(500, 2, (0.1, 0.9));
    let narrower_support = population_solver_on(500, 3, (0.2, 0.8));
    for version in [SpecVersion::V1, SpecVersion::V2] {
        let spec = PopulationSpec::scale_default(500, 0xD4).with_version(version);
        let population = NodePopulation::new(spec).unwrap();
        let mut store = BidStore::with_dims(3);
        population
            .bid_range_into_store(0..40, 2, &population_solver(500), &mut store)
            .unwrap();
        let before = store.clone();
        let mismatch = population.bid_range_into_store(40..300, 2, &two_dimensional, &mut store);
        assert_eq!(
            mismatch,
            Err(AuctionError::DimensionMismatch {
                expected: 2,
                actual: 3
            }),
            "{version:?}"
        );
        assert_eq!(
            store, before,
            "{version:?}: a failed fill wrote to the store"
        );
        let outside = population.bid_range_into_store(40..300, 2, &narrower_support, &mut store);
        assert!(
            matches!(outside, Err(AuctionError::ThetaOutOfSupport { .. })),
            "{version:?}: {outside:?}"
        );
        assert_eq!(
            store, before,
            "{version:?}: a failed fill wrote to the store"
        );
    }
}

/// A tabulated solver over three resources under the scoring family `scoring`.
fn ceiling_solver<S: ScoringFunction + 'static>(scoring: S) -> EquilibriumSolver {
    EquilibriumSolver::builder()
        .scoring(scoring)
        .cost(LinearCost::new(vec![0.3, 0.3, 0.4]).unwrap())
        .theta(UniformDist::new(0.1, 0.9).unwrap())
        .bounds(vec![(0.0, 1.0); 3])
        .population(40)
        .winners(4)
        .grid_size(24)
        .build()
        .unwrap()
}

/// The per-θ-cell score ceiling bounds the score of every tabulated bid, whatever the
/// capacity: for solvers and auction rules of the three scoring families (Cobb–Douglas
/// with fractional exponents, so `powf` is in play), at θ = θ̲, at every grid point (a cell
/// edge) and one ulp either side of it, at θ̄ − ε and θ̄, and at random θ; for capacities at
/// the corners of the unit cube and at random. The ceiling of θ's cell is read through the
/// cut the pre-pass uses: a bound equal to a bid's own score never cuts its θ. The cut
/// moves up in θ as the bound falls, and a bound above every score cuts somewhere.
#[test]
fn score_ceiling_dominates_every_tabulated_bid() {
    use rand::Rng;
    let additive = || Additive::new(vec![0.4, 0.3, 0.3]).unwrap();
    let cobb = || CobbDouglas::with_scale(2.0, vec![0.5, 0.3, 0.2]).unwrap();
    let complementary = || PerfectComplementary::new(vec![0.4, 0.3, 0.3]).unwrap();
    let solvers = [
        ("additive", ceiling_solver(additive())),
        ("cobb-douglas", ceiling_solver(cobb())),
        ("complementary", ceiling_solver(complementary())),
    ];
    let rules = [
        ("additive", ScoringRule::new(additive())),
        ("cobb-douglas", ScoringRule::new(cobb())),
        ("complementary", ScoringRule::new(complementary())),
    ];
    let (lo, hi) = (0.1f64, 0.9f64);
    let grid = 24;
    let mut thetas = vec![lo, hi - (hi - lo) * f64::EPSILON, hi];
    for i in 0..grid {
        let point = lo + (hi - lo) * i as f64 / (grid - 1) as f64;
        thetas.extend([point.next_down(), point, point.next_up()]);
    }
    let mut rng = fmore::numerics::seeded_rng(0xCE11);
    thetas.extend((0..64).map(|_| rng.gen_range(lo..hi)));
    thetas.retain(|theta| (lo..=hi).contains(theta));
    let mut capacities: Vec<[f64; 3]> = (0..8)
        .map(|corner| std::array::from_fn(|d| f64::from((corner >> d) & 1)))
        .collect();
    capacities.extend((0..16).map(|_| std::array::from_fn(|_| rng.gen_range(0.0..1.0))));
    let mut quality = Vec::new();
    for (solver_name, solver) in &solvers {
        for (rule_name, rule) in &rules {
            let ceiling = solver.score_ceiling(rule).unwrap();
            let mut scores = Vec::new();
            for &theta in &thetas {
                for capacity in &capacities {
                    let ask = solver
                        .tabulated_bid_into(theta, capacity, &mut quality)
                        .unwrap();
                    let score = rule.score(&Quality::new(quality.clone()), ask).unwrap();
                    assert!(
                        ceiling.cut(score).is_none_or(|cut| theta < cut),
                        "{solver_name}/{rule_name} θ = {theta} {capacity:?}: score {score} \
                         lies above its cell's ceiling (cut at {:?})",
                        ceiling.cut(score)
                    );
                    scores.push(score);
                }
            }
            scores.sort_by(f64::total_cmp);
            let cuts: Vec<f64> = scores
                .iter()
                .map(|&score| ceiling.cut(score).unwrap_or(f64::INFINITY))
                .collect();
            assert!(
                cuts.windows(2).all(|pair| pair[0] >= pair[1]),
                "{solver_name}/{rule_name}: the ceiling rose with θ"
            );
            let above = scores.last().unwrap() + 1.0;
            assert!(
                ceiling.cut(above).is_some_and(|cut| cut < hi),
                "{solver_name}/{rule_name}: no θ cut above every score"
            );
        }
    }
    assert_eq!(
        solvers[0]
            .1
            .score_ceiling(&ScoringRule::new(Additive::new(vec![1.0]).unwrap())),
        Err(AuctionError::DimensionMismatch {
            expected: 3,
            actual: 1
        })
    );
}

/// A shard filled through `bid_range_into_store_pruned` is, bid for bid, the unpruned
/// shard at the stored offsets, and what it omitted scores below the store's omit bound:
/// under both stream contracts, for bounds from none (and NaN) through the shard's score
/// quantiles to above its best score, on random populations and shard-boundary range
/// shapes, and on lengths around the 8-lane vector body from unaligned starts. CI's
/// scalar-only job runs this too, which covers the pre-pass's scalar tier. A θ outside
/// the solver's support is never omitted, so the error is the unpruned fill's.
#[test]
fn pruned_shard_fill_is_the_unpruned_shard_at_its_offsets() {
    use fmore::auction::BidStore;
    use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
    use std::cell::Cell;
    let rule = ScoringRule::new(Additive::new(vec![0.4, 0.3, 0.3]).unwrap());
    let (kept_total, omitted_total) = (Cell::new(0), Cell::new(0));
    let agree = |population: &NodePopulation,
                 solver: &EquilibriumSolver,
                 range: std::ops::Range<usize>,
                 round: u64|
     -> Result<(), String> {
        let ceiling = solver.score_ceiling(&rule).map_err(|e| e.to_string())?;
        let mut full = BidStore::with_dims(3);
        population
            .bid_range_into_store(range.clone(), round, solver, &mut full)
            .map_err(|e| e.to_string())?;
        full.score_with(&rule).map_err(|e| e.to_string())?;
        let mut scores: Vec<f64> = (0..full.len()).map(|j| full.score(j)).collect();
        scores.sort_by(f64::total_cmp);
        let quantile = |q: f64| scores.get((q * scores.len() as f64) as usize).copied();
        let bounds = [
            None,
            Some(f64::NAN),
            quantile(0.0),
            quantile(0.5),
            quantile(0.9),
            scores.last().map(|best| best + 1.0),
        ];
        for bound in bounds {
            let name = format!("{:?} {range:?} bound {bound:?}", population.spec().version);
            let mut pruned = BidStore::with_dims(3);
            pruned.set_omit_bound(bound);
            population
                .bid_range_into_store_pruned(range.clone(), round, solver, &ceiling, &mut pruned)
                .map_err(|e| format!("{name}: {e}"))?;
            ensure(pruned.offered() == range.len(), || {
                format!("{name}: offered {}", pruned.offered())
            })?;
            let mut next = 0;
            for j in 0..pruned.len() {
                let at = pruned.offset(j);
                ensure(at >= next && at < full.len(), || {
                    format!("{name}: offset {at} out of order")
                })?;
                for omitted in next..at {
                    ensure(
                        bound.is_some_and(|bound| full.score(omitted) < bound),
                        || {
                            format!(
                                "{name}: omitted bid {omitted} scores {}",
                                full.score(omitted)
                            )
                        },
                    )?;
                }
                ensure(
                    pruned.node(j) == full.node(at)
                        && pruned.ask(j).to_bits() == full.ask(at).to_bits()
                        && pruned
                            .quality(j)
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(full.quality(at).iter().map(|v| v.to_bits())),
                    || format!("{name}: bid {j} (offset {at}) drifted"),
                )?;
                next = at + 1;
            }
            for omitted in next..full.len() {
                ensure(
                    bound.is_some_and(|bound| full.score(omitted) < bound),
                    || {
                        format!(
                            "{name}: omitted bid {omitted} scores {}",
                            full.score(omitted)
                        )
                    },
                )?;
            }
            kept_total.set(kept_total.get() + pruned.len());
            omitted_total.set(omitted_total.get() + range.len() - pruned.len());
        }
        Ok(())
    };
    let versions = [SpecVersion::V1, SpecVersion::V2];
    let strategy = Tuple3(
        UsizeRange::new(1, 300),
        UsizeRange::new(0, 3),
        UsizeRange::new(0, 100_000),
    );
    check(&Config::seeded(0xD5), &strategy, |(n, round, seed)| {
        let solver = population_solver(*n);
        for version in versions {
            let spec = PopulationSpec::scale_default(*n, *seed as u64).with_version(version);
            let population = NodePopulation::new(spec).map_err(|e| e.to_string())?;
            for range in [0..0, n / 3..(2 * n / 3).max(n / 3), 0..*n] {
                agree(&population, &solver, range, *round as u64)?;
            }
        }
        Ok(())
    });
    const SIZE: usize = 8_300;
    let solver = population_solver(SIZE);
    for version in versions {
        let spec = PopulationSpec::scale_default(SIZE, 0xD5).with_version(version);
        let population = NodePopulation::new(spec).unwrap();
        for (l, len) in [1, 7, 8, 9, 63, 64, 65, 8_191].into_iter().enumerate() {
            let start = 1 + 2 * l;
            agree(&population, &solver, start..start + len, 1).unwrap();
        }
    }
    assert!(kept_total.get() > 0 && omitted_total.get() > 0);

    let narrower_support = population_solver_on(500, 3, (0.2, 0.8));
    let ceiling = narrower_support.score_ceiling(&rule).unwrap();
    for version in versions {
        let spec = PopulationSpec::scale_default(500, 0xD4).with_version(version);
        let population = NodePopulation::new(spec).unwrap();
        let mut store = BidStore::with_dims(3);
        store.set_omit_bound(Some(f64::MAX));
        let before = store.clone();
        let outside = population.bid_range_into_store_pruned(
            0..500,
            2,
            &narrower_support,
            &ceiling,
            &mut store,
        );
        assert!(
            matches!(outside, Err(AuctionError::ThetaOutOfSupport { .. })),
            "{version:?}: {outside:?}"
        );
        assert_eq!(
            store, before,
            "{version:?}: a failed fill wrote to the store"
        );
    }
}

/// The SIMD-dispatched batch-scoring kernels agree **bit-for-bit** with their scalar
/// cores at every vector-boundary length (empty, sub-lane, exact-lane, lane+1 for both
/// 4- and 8-wide tiles) across the scoring families — the lengths where remainder-loop
/// bugs live. The undispatched families are checked against the per-bid path at the same
/// lengths.
#[test]
fn simd_score_batch_matches_scalar_cores_at_boundary_lengths() {
    const LENGTHS: [usize; 8] = [0, 1, 3, 4, 5, 7, 8, 9];
    let strategy = UsizeRange::new(0, 100_000);
    check(&Config::seeded(0xD3), &strategy, |seed| {
        let mut rng = fmore::numerics::seeded_rng(*seed as u64);
        use rand::Rng;
        for &len in &LENGTHS {
            for dims in [2usize, 3] {
                let qualities: Vec<f64> =
                    (0..len * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                let asks: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..2.0)).collect();
                let weights = &[0.4, 0.3, 0.3][..dims];
                let mut dispatched = vec![0.0; len];
                let mut scalar = vec![0.0; len];

                let additive = Additive::new(weights.to_vec()).unwrap();
                additive.score_batch(&qualities, &asks, &mut dispatched);
                additive.score_batch_scalar(&qualities, &asks, &mut scalar);
                ensure(
                    dispatched
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(scalar.iter().map(|v| v.to_bits())),
                    || format!("additive len={len} dims={dims}: {dispatched:?} vs {scalar:?}"),
                )?;

                for exponents in [vec![1.0; dims], vec![0.5; dims]] {
                    let cobb = CobbDouglas::with_scale(25.0, exponents.clone()).unwrap();
                    cobb.score_batch(&qualities, &asks, &mut dispatched);
                    cobb.score_batch_scalar(&qualities, &asks, &mut scalar);
                    ensure(
                        dispatched
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(scalar.iter().map(|v| v.to_bits())),
                        || {
                            format!(
                                "cobb-douglas {exponents:?} len={len} dims={dims}: \
                                 {dispatched:?} vs {scalar:?}"
                            )
                        },
                    )?;
                }

                // Undispatched families: batch vs per-bid at the same boundary lengths.
                let comp = ScoringRule::new(PerfectComplementary::new(weights.to_vec()).unwrap());
                let norm = ScoringRule::new(
                    NormalizedScoring::new(
                        Additive::new(weights.to_vec()).unwrap(),
                        vec![(0.0, 1.0); dims],
                    )
                    .unwrap(),
                );
                for (name, rule) in [("complementary", &comp), ("normalized", &norm)] {
                    rule.score_batch(&qualities, &asks, &mut dispatched)
                        .map_err(|e| e.to_string())?;
                    for i in 0..len {
                        let per_bid = rule
                            .score(
                                &Quality::new(qualities[i * dims..(i + 1) * dims].to_vec()),
                                asks[i],
                            )
                            .map_err(|e| e.to_string())?;
                        ensure(dispatched[i].to_bits() == per_bid.to_bits(), || {
                            format!(
                                "{name} len={len} dims={dims} bid {i}: batch {} vs per-bid \
                                 {per_bid}",
                                dispatched[i]
                            )
                        })?;
                    }
                }
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Aggregation-rule invariants (ISSUE 10): every rule is permutation-invariant,
// agrees with FedAvg bit-for-bit on clean batches, and recovers the honest
// mean under a Byzantine minority.
// ---------------------------------------------------------------------------

/// The full rule panel, with the Byzantine tolerance `f` each screening backend is
/// parameterised for.
fn aggregation_rules(f: usize) -> Vec<std::sync::Arc<dyn fmore::fl::AggregationRule>> {
    use fmore::fl::{CoordinateMedian, FedAvg, Krum, MedianNormScreen, ScreenPolicy, TrimmedMean};
    vec![
        std::sync::Arc::new(FedAvg),
        std::sync::Arc::new(MedianNormScreen(ScreenPolicy::default())),
        std::sync::Arc::new(CoordinateMedian::default()),
        std::sync::Arc::new(TrimmedMean::new(f)),
        std::sync::Arc::new(Krum::new(f)),
    ]
}

/// Every aggregation rule is permutation-invariant: rotating the batch changes neither
/// how many updates are accepted nor the aggregate (within summation-reorder tolerance —
/// the survivors are re-summed in the rotated order).
#[test]
fn aggregation_rules_are_permutation_invariant() {
    use fmore::fl::AggregationScratch;
    let strategy = Tuple3(
        Tuple2(UsizeRange::new(4, 9), UsizeRange::new(1, 6)),
        UsizeRange::new(1, 8),
        Tuple2(
            VecOf::new(F64Range::new(-10.0, 10.0), 54, 54),
            VecOf::new(F64Range::new(0.1, 5.0), 9, 9),
        ),
    );
    check(
        &Config::seeded(0xA66),
        &strategy,
        |((n, dim), rot, (values, weights))| {
            let (n, dim) = (*n, *dim);
            let batch: Vec<(Vec<f64>, f64)> = (0..n)
                .map(|i| {
                    let params: Vec<f64> = (0..dim)
                        .map(|d| values[(i * dim + d) % values.len()])
                        .collect();
                    (params, weights[i % weights.len()])
                })
                .collect();
            let rotated: Vec<(Vec<f64>, f64)> =
                (0..n).map(|i| batch[(i + rot) % n].clone()).collect();
            let mut scratch = AggregationScratch::new();
            for rule in aggregation_rules(1) {
                let mut out_a = Vec::new();
                let mut out_b = Vec::new();
                let borrow = |b: &'_ [(Vec<f64>, f64)]| -> Vec<(Vec<f64>, f64)> { b.to_vec() };
                let a_borrowed: Vec<(&[f64], f64)> =
                    batch.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
                let b_owned = borrow(&rotated);
                let b_borrowed: Vec<(&[f64], f64)> =
                    b_owned.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
                let a = rule
                    .aggregate_with(&a_borrowed, &mut out_a, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let b = rule
                    .aggregate_with(&b_borrowed, &mut out_b, &mut scratch)
                    .map_err(|e| e.to_string())?;
                ensure(a.accepted == b.accepted, || {
                    format!(
                        "{}: rotation by {rot} changed accepted {} -> {}",
                        rule.name(),
                        a.accepted,
                        b.accepted
                    )
                })?;
                ensure(out_a.len() == out_b.len(), || {
                    format!("{}: rotation changed the output dimension", rule.name())
                })?;
                for (d, (x, y)) in out_a.iter().zip(&out_b).enumerate() {
                    ensure(
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                        || {
                            format!(
                                "{}: rotation by {rot} moved coordinate {d}: {x} vs {y}",
                                rule.name()
                            )
                        },
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// One member of a clean "ray" cluster: `center + t_i · dir`, where the per-member scale
/// `t_i` walks [0.5, 1] in `n` even steps and `dir`'s sign alternates by coordinate only.
/// All members share one direction, so distances from any reasonable robust centre spread
/// linearly along the ray — the max never exceeds 4× the upper-median distance (and the
/// norms stay within 8× of their median), which is exactly the band every screen tolerates.
/// Per-member offsets with independent signs do NOT have this property: at dim 1 they
/// collapse into two clusters at `center ± s`, and the far cluster trips the screen.
fn ray_member(i: usize, n: usize, dim: usize, center: &[f64], spread: &[f64]) -> Vec<f64> {
    let t = 0.5 + 0.5 * i as f64 / (n - 1) as f64;
    (0..dim)
        .map(|d| {
            let sign = if d % 2 == 0 { 1.0 } else { -1.0 };
            center[d % center.len()] + sign * t * spread[d % spread.len()]
        })
        .collect()
}

/// With zero adversaries — a clean, tightly clustered batch — every rule quarantines
/// nothing and agrees with plain FedAvg **bit-for-bit**: the robust backends are screens
/// over the same weighted average, so on clean data they are free.
#[test]
fn aggregation_rules_match_fedavg_bits_with_zero_adversaries() {
    use fmore::fl::{AggregationRule, AggregationScratch, FedAvg};
    let strategy = Tuple3(
        Tuple2(UsizeRange::new(4, 9), UsizeRange::new(1, 6)),
        VecOf::new(F64Range::new(1.0, 2.0), 6, 6),
        Tuple2(
            VecOf::new(F64Range::new(0.5, 1.0), 6, 6),
            VecOf::new(F64Range::new(0.1, 5.0), 9, 9),
        ),
    );
    check(
        &Config::seeded(0xC1EA),
        &strategy,
        |((n, dim), center, (spread, weights))| {
            let (n, dim) = (*n, *dim);
            let batch: Vec<(Vec<f64>, f64)> = (0..n)
                .map(|i| {
                    (
                        ray_member(i, n, dim, center, spread),
                        weights[i % weights.len()],
                    )
                })
                .collect();
            let borrowed: Vec<(&[f64], f64)> =
                batch.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
            let mut scratch = AggregationScratch::new();
            let mut reference = Vec::new();
            FedAvg
                .aggregate_with(&borrowed, &mut reference, &mut scratch)
                .map_err(|e| e.to_string())?;
            for rule in aggregation_rules(1) {
                let mut out = Vec::new();
                let screened = rule
                    .aggregate_with(&borrowed, &mut out, &mut scratch)
                    .map_err(|e| e.to_string())?;
                ensure(screened.quarantined.is_empty(), || {
                    format!(
                        "{}: quarantined {} members of a clean batch",
                        rule.name(),
                        screened.quarantined.len()
                    )
                })?;
                ensure(out.len() == reference.len(), || {
                    format!("{}: output dimension diverged from FedAvg", rule.name())
                })?;
                for (d, (x, y)) in out.iter().zip(&reference).enumerate() {
                    ensure(x.to_bits() == y.to_bits(), || {
                        format!(
                            "{}: coordinate {d} is not bit-identical to FedAvg: {x} vs {y}",
                            rule.name()
                        )
                    })?;
                }
            }
            Ok(())
        },
    );
}

/// Under `f` Byzantine members (25×-scaled updates) in a batch of `n > 3f`, every robust
/// screening rule quarantines exactly the Byzantine set and recovers the honest weighted
/// mean **bit-for-bit** — survivors aggregate in batch order, so the result is literally
/// FedAvg over the honest subset.
#[test]
fn robust_rules_recover_the_honest_mean_under_byzantine_minority() {
    use fmore::fl::{AggregationRule, AggregationScratch, FedAvg};
    let strategy = Tuple3(
        Tuple3(
            UsizeRange::new(7, 10),
            UsizeRange::new(1, 2),
            UsizeRange::new(0, 9),
        ),
        Tuple2(
            UsizeRange::new(2, 6),
            VecOf::new(F64Range::new(1.0, 2.0), 6, 6),
        ),
        Tuple2(
            VecOf::new(F64Range::new(0.5, 1.0), 6, 6),
            VecOf::new(F64Range::new(0.1, 5.0), 10, 10),
        ),
    );
    check(
        &Config::seeded(0xB12A),
        &strategy,
        |((n, f, offset), (dim, center), (spread, weights))| {
            let (n, f, offset, dim) = (*n, *f, *offset, *dim);
            let byzantine: std::collections::BTreeSet<usize> =
                (0..f).map(|i| (offset + i) % n).collect();
            let batch: Vec<(Vec<f64>, f64)> = (0..n)
                .map(|i| {
                    let mut params = ray_member(i, n, dim, center, spread);
                    if byzantine.contains(&i) {
                        for p in &mut params {
                            *p *= 25.0;
                        }
                    }
                    (params, weights[i % weights.len()])
                })
                .collect();
            let borrowed: Vec<(&[f64], f64)> =
                batch.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
            let honest: Vec<(&[f64], f64)> = borrowed
                .iter()
                .enumerate()
                .filter(|(i, _)| !byzantine.contains(i))
                .map(|(_, u)| *u)
                .collect();
            let mut honest_mean = Vec::new();
            let mut scratch = AggregationScratch::new();
            FedAvg
                .aggregate_with(&honest, &mut honest_mean, &mut scratch)
                .map_err(|e| e.to_string())?;
            // Skip FedAvg (index 0): the whole point is that it cannot survive this.
            for rule in aggregation_rules(f).into_iter().skip(1) {
                let mut out = Vec::new();
                let screened = rule
                    .aggregate_with(&borrowed, &mut out, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let caught: std::collections::BTreeSet<usize> =
                    screened.quarantined.iter().map(|q| q.index).collect();
                ensure(caught == byzantine, || {
                    format!(
                        "{}: quarantined {caught:?}, expected the Byzantine set \
                         {byzantine:?} (n={n}, f={f})",
                        rule.name()
                    )
                })?;
                for (d, (x, y)) in out.iter().zip(&honest_mean).enumerate() {
                    ensure(x.to_bits() == y.to_bits(), || {
                        format!(
                            "{}: coordinate {d} missed the honest mean: {x} vs {y}",
                            rule.name()
                        )
                    })?;
                }
            }
            Ok(())
        },
    );
}
