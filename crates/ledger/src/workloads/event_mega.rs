//! `event-mega`: a fixed list of `psse_event::run_programs` calls on the
//! serial event executor — four scheduled programs at `p = 10^3..10^5`
//! (one under a fault plan) and three analytic fast-path allreduces up
//! to `p = 10^6`. Every outcome is checked against `expected_totals`.

use std::path::Path;
use std::time::Instant;

use psse_event::prelude::*;
use psse_sim::prelude::{FaultPlan, FaultSpec, RecoveryPolicy};

use crate::check::{Checks, Fnv};
use crate::gen::{event_cases, EventCase, Scale, EVENT_MAX_MESSAGE_WORDS};
use crate::host::{median, median_secs, timed};
use crate::span::Tracer;
use crate::workloads::{LayerMetrics, Workload};

/// Which executor entry a case runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `run_programs`: serial scheduler, analytic fast path allowed.
    Serial,
    /// `EventMachine::run_general`: the scheduler, unconditionally.
    General,
    /// `EventMachine::run_parallel` on this many workers.
    Parallel(usize),
}

/// What one executed case reports (simulated statistics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CaseOutcome {
    totals: OpTotals,
    retries: u64,
    makespan_bits: u64,
    stats: ExecStats,
}

fn cfg_for(case: &EventCase) -> SimConfig {
    let base = SimConfig {
        backend: Backend::Events,
        ..SimConfig::default()
    };
    match *case {
        // Halo rows and matrix blocks travel whole (default 2^16 cap).
        EventCase::Stencil { .. } | EventCase::Matmul25d { .. } | EventCase::SampleSort { .. } => {
            base
        }
        EventCase::FaultedBinomial { fault_seed, .. } => SimConfig {
            max_message_words: EVENT_MAX_MESSAGE_WORDS,
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: fault_seed,
                    drop_rate: 0.05,
                    delay_rate: 0.05,
                    delay_seconds: 2e-6,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 24,
                    retry_backoff: 1e-8,
                    checkpoint: None,
                },
            }),
            ..base
        },
        _ => SimConfig {
            max_message_words: EVENT_MAX_MESSAGE_WORDS,
            ..base
        },
    }
}

/// The closed-form totals a case must reproduce.
fn expected(case: &EventCase) -> OpTotals {
    let m = cfg_for(case).max_message_words as u64;
    match *case {
        EventCase::Stencil { p, iters } => {
            Stencil1D::expected_totals(p as u64, p as u64, 1, iters as u64, m)
        }
        EventCase::Matmul25d { q, c, b } => Matmul25D::expected_totals(q as u64, c as u64, b),
        EventCase::SampleSort { p, bs } => SampleSort::expected_totals(p as u64, bs as u64, m),
        EventCase::FaultedBinomial { p, words, .. } | EventCase::FastBinomial { p, words } => {
            BinomialAllreduce::expected_totals(p as u64, words as u64, m)
        }
        EventCase::FastRecursiveDoubling { p, words } => {
            RecursiveDoublingAllreduce::expected_totals(p as u64, words as u64, m)
        }
        EventCase::FastRing { p, words } => {
            RingAllreduce::expected_totals(p as u64, words as u64, m)
        }
    }
}

/// Simulated messages a case sends (its share of the `sim_msgs` unit).
pub fn expected_msgs(case: &EventCase) -> u64 {
    expected(case).msgs
}

fn run_case(case: &EventCase, entry: Entry) -> Result<CaseOutcome, String> {
    fn go<P, F>(entry: Entry, p: usize, cfg: &SimConfig, make: F) -> Result<CaseOutcome, String>
    where
        P: RankProgram + Send,
        F: Fn(usize, usize) -> P + Sync,
    {
        let out = match entry {
            Entry::Serial => run_programs(p, cfg, make),
            Entry::General => EventMachine::run_general(p, cfg, make),
            Entry::Parallel(workers) => EventMachine::run_parallel(p, cfg, make, workers),
        }
        .map_err(|e| e.to_string())?;
        Ok(CaseOutcome {
            totals: OpTotals {
                msgs: out.profile.total_msgs_sent(),
                words: out.profile.total_words_sent(),
                flops: out.profile.total_flops(),
            },
            retries: out.profile.total_retries(),
            makespan_bits: out.profile.makespan.to_bits(),
            stats: out.stats,
        })
    }
    let cfg = cfg_for(case);
    let p = case.ranks();
    match *case {
        EventCase::Stencil { p: n, iters } => go(entry, p, &cfg, Stencil1D::counted(n, 1, iters)),
        EventCase::Matmul25d { q, c, b } => go(entry, p, &cfg, Matmul25D::counted(q, c, b)),
        EventCase::SampleSort { bs, .. } => go(entry, p, &cfg, SampleSort::counted(bs)),
        EventCase::FaultedBinomial { words, .. } | EventCase::FastBinomial { words, .. } => {
            go(entry, p, &cfg, BinomialAllreduce::counted(Tag(0), words))
        }
        EventCase::FastRecursiveDoubling { words, .. } => go(
            entry,
            p,
            &cfg,
            RecursiveDoublingAllreduce::counted(Tag(0), words),
        ),
        EventCase::FastRing { words, .. } => {
            go(entry, p, &cfg, RingAllreduce::counted(Tag(0), words))
        }
    }
}

/// Whether a case is scheduled event by event (as opposed to priced in
/// closed form by the analytic fast path).
fn is_scheduled(case: &EventCase) -> bool {
    matches!(
        case,
        EventCase::Stencil { .. }
            | EventCase::Matmul25d { .. }
            | EventCase::SampleSort { .. }
            | EventCase::FaultedBinomial { .. }
    )
}

/// The `event-mega` workload.
pub struct EventMega {
    cases: Vec<EventCase>,
    last: Vec<Result<CaseOutcome, String>>,
    /// Wall seconds of every `iterate` call so far, first one first.
    iter_secs: Vec<f64>,
}

impl EventMega {
    /// The fixed call list for `seed`.
    pub fn new(seed: u64, scale: Scale) -> EventMega {
        EventMega {
            cases: event_cases(seed, scale),
            last: Vec::new(),
            iter_secs: Vec::new(),
        }
    }
}

impl Workload for EventMega {
    fn unit(&self) -> &'static str {
        "sim_msgs"
    }

    fn work_units(&self) -> u64 {
        self.cases.iter().map(expected_msgs).sum()
    }

    fn setup(&mut self, _dir: &Path) -> Result<(), String> {
        // Inputs are values, not files: nothing to write.
        Ok(())
    }

    fn iterate(&mut self, tr: &mut Tracer) {
        let t0 = Instant::now();
        let cases = &self.cases;
        self.last = cases
            .iter()
            .map(|case| {
                tr.span(&format!("event.{}", case.name()), |_| {
                    run_case(case, Entry::Serial)
                })
            })
            .collect();
        self.iter_secs.push(t0.elapsed().as_secs_f64());
    }

    fn verify(&mut self, checks: &mut Checks) {
        for (case, outcome) in self.cases.iter().zip(&self.last) {
            let ok = match outcome {
                Ok(o) => {
                    o.totals == expected(case)
                        // The fault plan must actually bite.
                        && (o.retries > 0) == matches!(case, EventCase::FaultedBinomial { .. })
                }
                Err(_) => false,
            };
            checks.expect(ok, || {
                format!(
                    "event case {case:?}: got {outcome:?}, expected {:?}",
                    expected(case)
                )
            });
        }
    }

    fn stat_digest(&mut self) -> Result<String, String> {
        let mut h = Fnv::default();
        for (case, outcome) in self.cases.iter().zip(&self.last) {
            let o = outcome
                .as_ref()
                .map_err(|e| format!("{}: {e}", case.name()))?;
            h.field(case.name())
                .u64(o.totals.msgs)
                .u64(o.totals.words)
                .u64(o.totals.flops)
                .u64(o.retries)
                .u64(o.makespan_bits);
        }
        Ok(h.hex())
    }

    fn layer_probes(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LayerMetrics, String> {
        // Means over the traced iterations.
        let (own, reps) = (tr.self_times(), tr.count("iter").max(1) as f64);
        let ms =
            |name: &str| own.get(&format!("event.{name}")).copied().unwrap_or(0.0) * 1e3 / reps;
        let mut m: LayerMetrics = vec![
            ("event.stencil_ms", ms("stencil"), "ms"),
            ("event.mm25d_ms", ms("mm25d"), "ms"),
            ("event.samplesort_ms", ms("samplesort"), "ms"),
            ("event.faulted_ms", ms("faulted"), "ms"),
            ("event.fast_binomial_p1m_ms", ms("fast_binomial"), "ms"),
            ("event.fast_rd_ms", ms("fast_rd"), "ms"),
            ("event.fast_ring_ms", ms("fast_ring"), "ms"),
        ];
        // Counts from the traced iteration's outcomes: these repeat
        // exactly from run to run.
        let (mut sched_s, mut sched_msgs, mut msgs, mut retries) = (0.0, 0u64, 0u64, 0u64);
        let mut stats = ExecStats::default();
        for (case, outcome) in self.cases.iter().zip(&self.last) {
            let o = outcome
                .as_ref()
                .map_err(|e| format!("{}: {e}", case.name()))?;
            msgs += o.totals.msgs;
            retries += o.retries;
            stats.slab_live_peak = stats.slab_live_peak.max(o.stats.slab_live_peak);
            stats.slab_recycled += o.stats.slab_recycled;
            stats.calq_overflow += o.stats.calq_overflow;
            if is_scheduled(case) {
                sched_s += ms(case.name()) / 1e3;
                sched_msgs += o.totals.msgs;
            }
        }
        m.extend([
            (
                "event.sched_ns_per_msg",
                sched_s * 1e9 / sched_msgs.max(1) as f64,
                "ns",
            ),
            ("event.msgs", msgs as f64, "count"),
            ("event.retries", retries as f64, "count"),
            ("event.slab_live_peak", stats.slab_live_peak as f64, "count"),
            ("event.slab_recycled", stats.slab_recycled as f64, "count"),
            ("event.calq_overflow", stats.calq_overflow as f64, "count"),
        ]);

        // What the analytic fast path saves: the same binomial allreduce
        // through the scheduler and through the closed form.
        let p = self
            .cases
            .iter()
            .map(EventCase::ranks)
            .max()
            .unwrap_or(1)
            .min(100_000);
        let probe = EventCase::FastBinomial { p, words: 1 << 14 };
        let general = tr.span("event.probe_general", |_| {
            timed(|| run_case(&probe, Entry::General))
        });
        let fast = median_secs(5, || {
            std::hint::black_box(run_case(&probe, Entry::Serial)).ok();
        });
        // Engine counters differ by design; simulated statistics may not.
        let observable = |o: &Result<CaseOutcome, String>| {
            o.clone().map(|o| (o.totals, o.retries, o.makespan_bits))
        };
        let identical = run_case(&probe, Entry::Serial);
        checks.expect(
            observable(&general.0) == observable(&identical) && identical.is_ok(),
            || {
                format!(
                    "fast path differs from scheduler: {:?} vs {identical:?}",
                    general.0
                )
            },
        );
        m.push(("event.general_over_fast", general.1 / fast, "ratio"));

        // The round-based parallel executor against the serial one.
        if let Some(stencil) = self
            .cases
            .iter()
            .find(|c| matches!(c, EventCase::Stencil { .. }))
        {
            let serial = tr.span("event.probe_serial", |_| {
                timed(|| run_case(stencil, Entry::Serial))
            });
            let parallel = tr.span("event.probe_parallel", |_| {
                timed(|| run_case(stencil, Entry::Parallel(2)))
            });
            let same = serial.0.is_ok() && observable(&serial.0) == observable(&parallel.0);
            checks.expect(same, || {
                format!("parallel differs: {:?} vs {:?}", serial.0, parallel.0)
            });
            m.push(("event.parallel_speedup", serial.1 / parallel.1, "ratio"));
        }

        // Allocator first touch: the process's very first iteration
        // against the steady state.
        let steady = median(&self.iter_secs[1.min(self.iter_secs.len() - 1)..]);
        m.push((
            "event.first_iter_over_median",
            self.iter_secs[0] / steady,
            "ratio",
        ));
        Ok(m)
    }
}
