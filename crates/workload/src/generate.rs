//! The seeded workload synthesizer.
//!
//! Every benchmark before this crate replayed one hand-written spec; a
//! mediator sized for a million users needs traffic that *looks* like a
//! million users. The generator draws a pool of unique query specs from a
//! parameterized shape grammar, assigns them Zipf-distributed popularity
//! (a few specs account for most submissions — which is what makes the
//! result cache earn its keep), and schedules submissions under a
//! pluggable arrival process. Everything is driven by one ChaCha8 stream
//! seeded from [`GenOpts::seed`], so equal options produce byte-identical
//! traces — a reproducibility property the test suite pins with a
//! proptest.
//!
//! # The grammar
//!
//! A spec is `relations × joins × config`. Each relation draws a
//! cardinality from a weighted size class and a wrapper delay model from
//! a weighted delay-taxonomy class (the paper's §3 taxonomy: constant,
//! uniform, initial-delay, bursty); joins chain the relations linearly
//! with sampled selectivity; the config draws a memory class and a
//! per-spec seed (distinct seeds keep distinct specs from colliding in
//! the result cache, while repeated submissions of the *same* spec hit
//! it).
//!
//! # Arrival processes
//!
//! * [`Arrival::Poisson`] — open-loop memoryless arrivals at a fixed
//!   rate: the classic load model, and what the acceptance bench uses;
//! * [`Arrival::Bursty`] — Poisson arrivals gated by an on/off square
//!   wave: `on_ms` of traffic, `off_ms` of silence — queue-drain stress;
//! * [`Arrival::Diurnal`] — Poisson arrivals whose rate follows a raised
//!   cosine between `base_per_sec` and `peak_per_sec` over `period_ms`
//!   (a day compressed to a bench-sized period), via thinning.

use std::ops::RangeInclusive;

use dqs_exec::json::{self, arr, fields, fixed, obj, ToJson};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{Trace, TraceEvent};

/// A wrapper delay-taxonomy class, in spec-JSON delay terms.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayClass {
    /// Fixed inter-tuple gap.
    Constant {
        /// Gap, microseconds.
        us: u64,
    },
    /// Uniform gap in `[0, 2·mean_us]`.
    Uniform {
        /// Mean gap, microseconds.
        mean_us: u64,
    },
    /// Long first-tuple latency, then steady delivery.
    Initial {
        /// First-tuple delay, milliseconds.
        delay_ms: u64,
        /// Steady inter-tuple gap after the first, microseconds.
        mean_us: u64,
    },
    /// Tuples in bursts separated by pauses.
    Bursty {
        /// Tuples per burst.
        burst: u64,
        /// Gap inside a burst, microseconds.
        within_us: u64,
        /// Pause between bursts, milliseconds.
        pause_ms: u64,
    },
}

/// The spec-JSON `delay` object for this class.
impl ToJson for &DelayClass {
    fn write_json(self, out: &mut String) {
        obj(|o| match *self {
            DelayClass::Constant { us } => fields!(o, "constant_us": us),
            DelayClass::Uniform { mean_us } => fields!(o, "uniform_us": mean_us),
            DelayClass::Initial { delay_ms, mean_us } => fields!(o,
                "initial": obj(|o| fields!(o, "delay_ms": delay_ms, "mean_us": mean_us))
            ),
            DelayClass::Bursty {
                burst,
                within_us,
                pause_ms,
            } => fields!(o,
                "bursty": obj(|o| {
                    fields!(o, "burst": burst, "within_us": within_us, "pause_ms": pause_ms)
                })
            ),
        })
        .write_json(out)
    }
}

/// The query-shape grammar: weighted choices for every dimension of a
/// spec. Weights are relative (they need not sum to 1).
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Relations per query (min 2 — the engine wants a join to
    /// schedule); joins chain them, so fanout = relations − 1.
    pub relations: RangeInclusive<usize>,
    /// Weighted relation-cardinality classes.
    pub size_classes: Vec<(RangeInclusive<u64>, f64)>,
    /// Weighted delay-taxonomy classes.
    pub delay_classes: Vec<(DelayClass, f64)>,
    /// Weighted per-query memory budgets, MiB.
    pub memory_classes: Vec<(u64, f64)>,
    /// Weighted strategy mix (`seq|ma|scr|dse`).
    pub strategies: Vec<(String, f64)>,
    /// Join selectivity range.
    pub selectivity: RangeInclusive<f64>,
}

impl Default for Grammar {
    fn default() -> Self {
        Grammar {
            relations: 2..=4,
            size_classes: vec![(16..=64, 0.6), (64..=192, 0.3), (192..=448, 0.1)],
            delay_classes: vec![
                (DelayClass::Constant { us: 200 }, 0.45),
                (DelayClass::Uniform { mean_us: 400 }, 0.30),
                (
                    DelayClass::Initial {
                        delay_ms: 2,
                        mean_us: 300,
                    },
                    0.15,
                ),
                (
                    DelayClass::Bursty {
                        burst: 16,
                        within_us: 50,
                        pause_ms: 2,
                    },
                    0.10,
                ),
            ],
            memory_classes: vec![(4, 0.5), (8, 0.35), (16, 0.15)],
            strategies: vec![
                ("dse".into(), 0.7),
                ("scr".into(), 0.1),
                ("ma".into(), 0.1),
                ("seq".into(), 0.1),
            ],
            selectivity: 0.002..=0.02,
        }
    }
}

/// When submissions arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// Open-loop memoryless arrivals at a fixed rate.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Poisson arrivals gated by an on/off square wave.
    Bursty {
        /// Mean arrivals per second *while on*.
        rate_per_sec: f64,
        /// Length of each traffic window, milliseconds.
        on_ms: u64,
        /// Length of each silence between windows, milliseconds.
        off_ms: u64,
    },
    /// Poisson arrivals whose rate follows a raised cosine between base
    /// and peak over one period (thinning).
    Diurnal {
        /// Trough rate, arrivals per second.
        base_per_sec: f64,
        /// Crest rate, arrivals per second.
        peak_per_sec: f64,
        /// One full cycle, milliseconds.
        period_ms: u64,
    },
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenOpts {
    /// Master seed; equal opts ⇒ byte-identical trace.
    pub seed: u64,
    /// Unique specs in the pool.
    pub specs: usize,
    /// Total submissions to schedule.
    pub events: usize,
    /// Zipf skew exponent `s` (popularity of rank r ∝ 1/(r+1)^s);
    /// 0 = uniform, ≳1 = a few specs dominate.
    pub zipf_s: f64,
    /// The arrival process.
    pub arrival: Arrival,
    /// The query-shape grammar.
    pub grammar: Grammar,
}

impl Default for GenOpts {
    fn default() -> Self {
        GenOpts {
            seed: 42,
            specs: 50,
            events: 1000,
            zipf_s: 1.1,
            arrival: Arrival::Poisson {
                rate_per_sec: 200.0,
            },
            grammar: Grammar::default(),
        }
    }
}

/// Weighted choice over `(item, weight)` pairs.
fn weighted<'a, T, R: Rng>(rng: &mut R, items: &'a [(T, f64)]) -> &'a T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    assert!(
        !items.is_empty() && total > 0.0,
        "weighted choice needs positive total weight"
    );
    let mut u = rng.gen_range(0.0..total);
    for (item, w) in items {
        if u < *w {
            return item;
        }
        u -= w;
    }
    &items.last().expect("nonempty").0
}

/// Exponential inter-arrival gap at `rate` per second, in milliseconds.
fn exp_gap_ms<R: Rng>(rng: &mut R, rate_per_sec: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate_per_sec * 1000.0
}

/// The next arrival's absolute time given the previous one, ms.
fn next_arrival_ms<R: Rng>(rng: &mut R, arrival: &Arrival, t_ms: f64) -> f64 {
    match *arrival {
        Arrival::Poisson { rate_per_sec } => {
            assert!(rate_per_sec > 0.0, "poisson rate must be positive");
            t_ms + exp_gap_ms(rng, rate_per_sec)
        }
        Arrival::Bursty {
            rate_per_sec,
            on_ms,
            off_ms,
        } => {
            assert!(
                rate_per_sec > 0.0 && on_ms > 0,
                "bursty needs rate and on_ms"
            );
            // The gap is Poisson in *on-window time*: walk forward
            // consuming on-window milliseconds, hopping over each off
            // window untouched.
            let (on, period) = (on_ms as f64, (on_ms + off_ms) as f64);
            let mut remaining = exp_gap_ms(rng, rate_per_sec);
            let mut t = t_ms;
            loop {
                let pos = t % period;
                if pos >= on {
                    t += period - pos; // silence: hop to the next window
                    continue;
                }
                let avail = on - pos;
                if remaining < avail {
                    return t + remaining;
                }
                remaining -= avail;
                t += avail;
            }
        }
        Arrival::Diurnal {
            base_per_sec,
            peak_per_sec,
            period_ms,
        } => {
            assert!(
                peak_per_sec >= base_per_sec && peak_per_sec > 0.0 && period_ms > 0,
                "diurnal needs 0 < base ≤ peak and a period"
            );
            // Thinning: propose at the peak rate, accept with probability
            // rate(t)/peak where rate(t) is a raised cosine with trough
            // at t = 0.
            let mut t = t_ms;
            loop {
                t += exp_gap_ms(rng, peak_per_sec);
                let phase = (t / period_ms as f64) * std::f64::consts::TAU;
                let rate = base_per_sec + (peak_per_sec - base_per_sec) * 0.5 * (1.0 - phase.cos());
                if rng.gen_range(0.0..1.0) < rate / peak_per_sec {
                    return t;
                }
            }
        }
    }
}

/// One spec drawn from the grammar. `idx` only names the relations so
/// trace files read well; identity comes from the sampled dimensions and
/// the per-spec seed.
fn gen_spec<R: Rng + RngCore>(rng: &mut R, g: &Grammar, idx: usize) -> String {
    assert!(
        *g.relations.start() >= 2,
        "specs need at least two relations to have a join"
    );
    let nrel = rng.gen_range(g.relations.clone());
    // Every random draw happens here, in this order; rendering below
    // draws nothing.
    let rels: Vec<(u64, &DelayClass)> = (0..nrel)
        .map(|_| {
            let size = weighted(rng, &g.size_classes).clone();
            (rng.gen_range(size), weighted(rng, &g.delay_classes))
        })
        .collect();
    let sels: Vec<f64> = (1..nrel)
        .map(|_| rng.gen_range(g.selectivity.clone()))
        .collect();
    let mem = *weighted(rng, &g.memory_classes);
    // Per-spec seed (32-bit so the spec parser's integer range is safe):
    // distinct seeds give distinct specs distinct cache identities.
    let seed = rng.next_u64() & u64::from(u32::MAX);

    let name = |r: usize| format!("q{idx}r{r}");
    let relations = rels.iter().enumerate().map(|(r, &(card, delay))| {
        obj(move |o| fields!(o, "name": &name(r), "cardinality": card, "delay": delay))
    });
    let joins = sels.iter().enumerate().map(|(r, &sel)| {
        obj(move |o| {
            fields!(o, "left": &name(r), "right": &name(r + 1), "selectivity": fixed(sel, 5))
        })
    });
    json::object(|o| {
        fields!(o,
            "relations": arr(relations), "joins": arr(joins),
            "config": obj(|o| fields!(o, "memory_mb": mem, "seed": seed))
        )
    })
}

/// Zipf CDF over `n` ranks with exponent `s` (rank 0 most popular).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Generate a trace. Deterministic in `opts`: equal options (including
/// the grammar) produce a byte-identical [`Trace::to_json`].
pub fn generate(opts: &GenOpts) -> Trace {
    assert!(opts.specs > 0, "need at least one spec in the pool");
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let specs: Vec<String> = (0..opts.specs)
        .map(|i| gen_spec(&mut rng, &opts.grammar, i))
        .collect();
    let cdf = zipf_cdf(opts.specs, opts.zipf_s);
    let mut events = Vec::with_capacity(opts.events);
    let mut t_ms = 0.0f64;
    for _ in 0..opts.events {
        t_ms = next_arrival_ms(&mut rng, &opts.arrival, t_ms);
        let u: f64 = rng.gen_range(0.0..1.0);
        let spec = cdf.partition_point(|&c| c < u).min(opts.specs - 1);
        let strategy = weighted(&mut rng, &opts.grammar.strategies).clone();
        events.push(TraceEvent {
            at_ms: t_ms as u64,
            spec,
            strategy,
        });
    }
    Trace {
        seed: opts.seed,
        specs,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded trace (full-width `u64` seed) and every delay class, byte
    /// for byte as the pre-writer `format!`s produced them.
    #[test]
    fn generated_documents_match_the_golden_rendering() {
        let t = generate(&GenOpts {
            seed: 0xFFFF_FFFF_FFFF_FFF1,
            specs: 3,
            events: 4,
            ..GenOpts::default()
        });
        assert_eq!(
            t.to_json(),
            r#"{"version":1,"seed":18446744073709551601,"specs":["{\"relations\":[{\"name\":\"q0r0\",\"cardinality\":63,\"delay\":{\"initial\":{\"delay_ms\":2,\"mean_us\":300}}},{\"name\":\"q0r1\",\"cardinality\":128,\"delay\":{\"constant_us\":200}}],\"joins\":[{\"left\":\"q0r0\",\"right\":\"q0r1\",\"selectivity\":0.01756}],\"config\":{\"memory_mb\":4,\"seed\":3162073943}}","{\"relations\":[{\"name\":\"q1r0\",\"cardinality\":22,\"delay\":{\"uniform_us\":400}},{\"name\":\"q1r1\",\"cardinality\":39,\"delay\":{\"uniform_us\":400}},{\"name\":\"q1r2\",\"cardinality\":59,\"delay\":{\"uniform_us\":400}},{\"name\":\"q1r3\",\"cardinality\":18,\"delay\":{\"constant_us\":200}}],\"joins\":[{\"left\":\"q1r0\",\"right\":\"q1r1\",\"selectivity\":0.01720},{\"left\":\"q1r1\",\"right\":\"q1r2\",\"selectivity\":0.00750},{\"left\":\"q1r2\",\"right\":\"q1r3\",\"selectivity\":0.00674}],\"config\":{\"memory_mb\":8,\"seed\":1604863638}}","{\"relations\":[{\"name\":\"q2r0\",\"cardinality\":24,\"delay\":{\"constant_us\":200}},{\"name\":\"q2r1\",\"cardinality\":28,\"delay\":{\"constant_us\":200}},{\"name\":\"q2r2\",\"cardinality\":138,\"delay\":{\"uniform_us\":400}}],\"joins\":[{\"left\":\"q2r0\",\"right\":\"q2r1\",\"selectivity\":0.01829},{\"left\":\"q2r1\",\"right\":\"q2r2\",\"selectivity\":0.01867}],\"config\":{\"memory_mb\":4,\"seed\":2988645085}}"],"events":[{"at_ms":14,"spec":0,"strategy":"dse"},{"at_ms":19,"spec":0,"strategy":"scr"},{"at_ms":23,"spec":1,"strategy":"dse"},{"at_ms":25,"spec":0,"strategy":"dse"}]}"#
        );
        let delays: Vec<String> = Grammar::default()
            .delay_classes
            .iter()
            .map(|(class, _)| json::object(|o| fields!(o, "delay": class)))
            .collect();
        assert_eq!(
            delays,
            [
                r#"{"delay":{"constant_us":200}}"#,
                r#"{"delay":{"uniform_us":400}}"#,
                r#"{"delay":{"initial":{"delay_ms":2,"mean_us":300}}}"#,
                r#"{"delay":{"bursty":{"burst":16,"within_us":50,"pause_ms":2}}}"#,
            ]
        );
    }

    #[test]
    fn equal_seeds_produce_byte_identical_traces() {
        let opts = GenOpts::default();
        let a = generate(&opts).to_json();
        let b = generate(&opts).to_json();
        assert_eq!(a, b);
        let c = generate(&GenOpts {
            seed: 43,
            ..GenOpts::default()
        })
        .to_json();
        assert_ne!(a, c, "a different seed moves the trace");
    }

    #[test]
    fn every_generated_spec_parses_as_a_workload_spec() {
        let t = generate(&GenOpts {
            specs: 40,
            events: 1,
            ..GenOpts::default()
        });
        for spec in &t.specs {
            let parsed = dqs_exec::spec::WorkloadSpec::from_json(spec)
                .unwrap_or_else(|e| panic!("generated spec must parse: {e}\n{spec}"));
            parsed
                .into_workload()
                .unwrap_or_else(|e| panic!("generated spec must build: {e}\n{spec}"));
        }
    }

    #[test]
    fn zipf_popularity_is_front_loaded_and_timestamps_are_sorted() {
        let t = generate(&GenOpts {
            specs: 20,
            events: 2000,
            zipf_s: 1.2,
            ..GenOpts::default()
        });
        let mut counts = [0usize; 20];
        for e in &t.events {
            counts[e.spec] += 1;
        }
        let tail_max = counts[10..].iter().max().copied().unwrap();
        assert!(
            counts[0] > 4 * tail_max.max(1),
            "rank 0 ({}) should dwarf the tail (max {tail_max})",
            counts[0]
        );
        assert!(t.events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn poisson_mean_gap_matches_the_rate() {
        let t = generate(&GenOpts {
            specs: 5,
            events: 4000,
            arrival: Arrival::Poisson {
                rate_per_sec: 500.0,
            },
            ..GenOpts::default()
        });
        // 500/s ⇒ 2 ms mean gap ⇒ 4000 events span ≈ 8 s.
        let span = t.duration_ms() as f64;
        assert!(
            (6_000.0..10_000.0).contains(&span),
            "span {span} ms for 4000 events at 500/s"
        );
    }

    #[test]
    fn bursty_arrivals_avoid_the_off_window() {
        let (on, off) = (40u64, 60u64);
        let t = generate(&GenOpts {
            specs: 3,
            events: 1500,
            arrival: Arrival::Bursty {
                rate_per_sec: 300.0,
                on_ms: on,
                off_ms: off,
            },
            ..GenOpts::default()
        });
        for e in &t.events {
            let pos = e.at_ms % (on + off);
            assert!(
                pos <= on,
                "arrival at {} falls {}ms into the period",
                e.at_ms,
                pos
            );
        }
    }

    #[test]
    fn diurnal_peak_half_outdraws_the_trough_half() {
        let period = 2_000u64;
        let t = generate(&GenOpts {
            specs: 3,
            events: 3000,
            arrival: Arrival::Diurnal {
                base_per_sec: 50.0,
                peak_per_sec: 500.0,
                period_ms: period,
            },
            ..GenOpts::default()
        });
        // Trough is at phase 0, crest at phase ½: the half-period around
        // the crest must collect far more arrivals.
        let (mut near_peak, mut near_base) = (0usize, 0usize);
        for e in &t.events {
            let pos = e.at_ms % period;
            if (period / 4..3 * period / 4).contains(&pos) {
                near_peak += 1;
            } else {
                near_base += 1;
            }
        }
        assert!(
            near_peak > 2 * near_base,
            "peak half {near_peak} vs trough half {near_base}"
        );
    }

    #[test]
    fn pool_specs_are_unique() {
        let t = generate(&GenOpts {
            specs: 30,
            events: 1,
            ..GenOpts::default()
        });
        let mut seen = std::collections::HashSet::new();
        for s in &t.specs {
            assert!(seen.insert(s.clone()), "duplicate spec in pool: {s}");
        }
    }
}
