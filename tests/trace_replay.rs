//! End-to-end guarantees of the trace subsystem: recording is
//! deterministic, replay reproduces the live run bit-for-bit, and the
//! Chrome export is structurally valid JSON.

use psse::kernels::Matrix;
use psse::prelude::*;
use psse::sim::machine::{Machine, SimConfig};
use psse::sim::Tag;
use psse::trace::Trace;

fn recording_config() -> SimConfig {
    SimConfig {
        record_trace: true,
        ..sim_config_from(&jaketown())
    }
}

/// Run the 2.5D matmul fixture once with recording on.
fn record_mm25d() -> (SimConfig, psse::sim::profile::Profile) {
    let cfg = recording_config();
    let a = Matrix::random(16, 16, 1);
    let b = Matrix::random(16, 16, 2);
    let (_, profile) = matmul_25d(&a, &b, 8, 2, cfg.clone()).unwrap();
    (cfg, profile)
}

#[test]
fn recording_is_deterministic_for_mm25d() {
    let (cfg, p1) = record_mm25d();
    let (_, p2) = record_mm25d();
    assert_eq!(p1, p2, "two identical runs must produce equal profiles");

    let t1 = Trace::from_run(&cfg, &p1).unwrap();
    let t2 = Trace::from_run(&cfg, &p2).unwrap();
    assert_eq!(
        t1.to_text(),
        t2.to_text(),
        "serialized traces must be byte-identical across runs"
    );
}

#[test]
fn recording_is_deterministic_for_collectives() {
    let run = || {
        let cfg = recording_config();
        let out = Machine::run(8, cfg.clone(), |rank| {
            rank.compute(1_000 * (rank.rank() as u64 + 1));
            let local = vec![rank.rank() as f64; 32];
            let summed = rank.allreduce_sum(Tag(7), local)?;
            let world = psse::sim::collectives::Group::world(rank.size());
            let gathered = rank.allgather(Tag(8), &world, vec![summed[0]])?;
            Ok(gathered.len())
        })
        .unwrap();
        let trace = Trace::from_run(&cfg, &out.profile).unwrap();
        (trace.to_text(), out.profile)
    };
    let (text1, prof1) = run();
    let (text2, prof2) = run();
    assert_eq!(prof1, prof2);
    assert_eq!(text1, text2);
}

#[test]
fn replay_reproduces_live_run_exactly() {
    let (cfg, profile) = record_mm25d();
    let trace = Trace::from_run(&cfg, &profile).unwrap();
    // Bit-exact: identical per-rank counters and to_bits()-equal makespan.
    trace.check_consistency(&profile).unwrap();

    let replayed = trace.replay(&trace.params).unwrap();
    assert_eq!(
        replayed.makespan.to_bits(),
        profile.makespan.to_bits(),
        "replay under recorded parameters must be bit-identical"
    );
}

/// A profile carries event logs by configuration alone: one per rank
/// when `record_trace` is set — on either backend, and `Trace::from_run`
/// takes them — and none at all otherwise.
#[test]
fn event_logs_are_per_rank_when_traced_and_absent_otherwise() {
    use psse::event::prelude::{run_programs, Backend, BinomialAllreduce};
    let p = 12;
    for backend in [Backend::Threads, Backend::Events] {
        let cfg = SimConfig {
            backend,
            ..recording_config()
        };
        let traced = run_programs(p, &cfg, BinomialAllreduce::counted(Tag(0), 100)).unwrap();
        assert_eq!(traced.profile.events.len(), p, "{backend}");
        let trace = Trace::from_run(&cfg, &traced.profile).unwrap();
        trace.check_consistency(&traced.profile).unwrap();

        let cfg = SimConfig {
            record_trace: false,
            ..cfg
        };
        let untraced = run_programs(p, &cfg, BinomialAllreduce::counted(Tag(0), 100)).unwrap();
        assert!(untraced.profile.events.is_empty(), "{backend}");
        assert_eq!(untraced.profile.per_rank(), traced.profile.per_rank());
        assert!(Trace::from_run(&cfg, &untraced.profile).is_err());
    }
}

#[test]
fn text_roundtrip_preserves_replay() {
    let (cfg, profile) = record_mm25d();
    let trace = Trace::from_run(&cfg, &profile).unwrap();
    let restored = Trace::from_text(&trace.to_text()).unwrap();
    assert_eq!(restored.to_text(), trace.to_text());
    restored.check_consistency(&profile).unwrap();
}

#[test]
fn chrome_export_is_structurally_valid_json() {
    let (cfg, profile) = record_mm25d();
    let trace = Trace::from_run(&cfg, &profile).unwrap();
    let json = trace.to_chrome_json();

    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\""));
    // One process-name metadata record per rank.
    assert_eq!(json.matches("process_name").count(), trace.p);

    // Structural validation: braces/brackets balance outside strings,
    // and every quote opens or closes a legal JSON string.
    let (mut depth_obj, mut depth_arr) = (0i64, 0i64);
    let mut in_string = false;
    let mut escaped = false;
    for ch in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced JSON nesting");
    }
    assert!(!in_string, "unterminated string in Chrome JSON");
    assert_eq!(depth_obj, 0, "unbalanced braces in Chrome JSON");
    assert_eq!(depth_arr, 0, "unbalanced brackets in Chrome JSON");
}
