//! Bridging the simulator and the analytical models.
//!
//! `psse-sim` knows nothing about energy and `psse-core` nothing about
//! threads; this module converts between them:
//!
//! * [`sim_config_from`] builds a simulator cost configuration from a
//!   machine description (`γt`, `βt`, `αt`, `m`, memory limit);
//! * [`summarize`] condenses a per-rank [`Profile`] into the
//!   [`ExecutionSummary`] that Eq. 2 prices;
//! * [`measure`] does both pricings at once, returning the `(T, E, P)`
//!   of a measured run on a given machine.

use psse_core::params::MachineParams;
use psse_core::summary::{ExecutionSummary, Measured};
use psse_kernels::matrix::Matrix;
use psse_metrics::{saturating_nanos, Registry};
use psse_sim::grid::Grid2;
use psse_sim::machine::SimConfig;
use psse_sim::profile::Profile;

/// Assemble the `q × q` grid of row-major `(n/q)²` blocks returned by the
/// ranks (indexed `rank = row·q + col`) into the global `n × n` matrix.
pub fn gather_blocks_2d(blocks: &[Vec<f64>], n: usize, q: usize) -> Matrix {
    assert_eq!(blocks.len(), q * q, "one block per rank");
    let bs = n / q;
    let grid = Grid2::from_p(q * q).expect("q² ranks");
    let mut out = Matrix::zeros(n, n);
    for (rank, data) in blocks.iter().enumerate() {
        let (r, c) = grid.coords(rank);
        let block = Matrix::from_vec(bs, bs, data.clone());
        out.set_block(r * bs, c * bs, &block);
    }
    out
}

/// Build a [`SimConfig`] whose virtual-time prices match `params`.
/// The per-rank memory limit is taken from `params.mem_words` when
/// finite.
pub fn sim_config_from(params: &MachineParams) -> SimConfig {
    SimConfig {
        gamma_t: params.gamma_t,
        beta_t: params.beta_t,
        alpha_t: params.alpha_t,
        max_message_words: if params.max_message_words.is_finite() {
            (params.max_message_words as usize).max(1)
        } else {
            usize::MAX
        },
        mem_limit_words: if params.mem_words.is_finite() {
            Some(params.mem_words as u64)
        } else {
            None
        },
        ..SimConfig::default()
    }
}

/// Build a hierarchical [`SimConfig`] (paper Fig. 2) from a two-level
/// machine description: inter-node links at `βnt`, intra-node links at
/// `βlt`, ranks grouped into nodes of `cores_per_node`. Latency is
/// elided exactly as in the paper's two-level equations.
pub fn sim_config_two_level(tl: &psse_core::twolevel::TwoLevelParams) -> SimConfig {
    SimConfig {
        gamma_t: tl.gamma_t,
        beta_t: tl.beta_n_t,
        alpha_t: 0.0,
        hierarchy: Some(psse_sim::machine::Hierarchy {
            cores_per_node: tl.cores_per_node as usize,
            intra_beta_t: tl.beta_l_t,
            intra_alpha_t: 0.0,
        }),
        ..SimConfig::default()
    }
}

/// Price a hierarchical run with the two-level energy model: flop energy
/// on total flops, word energy split by link level, and the
/// `pn·δne·Mn + p·δle·Ml + p·εe` standby power over the makespan.
pub fn measure_two_level(profile: &Profile, tl: &psse_core::twolevel::TwoLevelParams) -> Measured {
    let t = profile.makespan;
    let p = profile.p() as f64;
    let pn = p / tl.cores_per_node as f64;
    // Resilience traffic is link-agnostic in the counters; price it
    // conservatively at the inter-node word energy.
    let energy = tl.gamma_e * profile.total_flops() as f64
        + tl.beta_n_e * profile.total_words_inter() as f64
        + tl.beta_l_e * profile.total_words_intra() as f64
        + tl.beta_n_e * profile.resilience_words() as f64
        + (pn * tl.delta_n_e * tl.mem_node + p * tl.delta_l_e * tl.mem_local + p * tl.epsilon_e)
            * t;
    Measured {
        time: t,
        energy,
        power: if t > 0.0 { energy / t } else { 0.0 },
    }
}

/// Condense a simulator profile into the summary priced by Eq. 2.
/// Critical-path fields are max-over-ranks; totals are sums; `T` is the
/// simulator's message-DAG makespan. Resilience traffic
/// (retransmissions, duplicates, checkpoint writes) is folded into the
/// word/message counts so Eq. 2 prices the energy the faults cost; on a
/// fault-free run the folded counters equal the plain ones.
pub fn summarize(profile: &Profile) -> ExecutionSummary {
    ExecutionSummary {
        p: profile.p() as u64,
        flops: profile.max_flops() as f64,
        words: profile.max_words_with_resilience() as f64,
        messages: profile.max_msgs_with_resilience() as f64,
        mem_peak_words: profile.max_mem_peak() as f64,
        total_flops: profile.total_flops() as f64,
        total_words: (profile.total_words_sent() + profile.resilience_words()) as f64,
        total_messages: (profile.total_msgs_sent() + profile.resilience_msgs()) as f64,
        makespan: Some(profile.makespan),
    }
}

/// Price a measured run on `params`: returns runtime, energy and average
/// power per Eqs. 1–2 evaluated over the actual counters.
pub fn measure(profile: &Profile, params: &MachineParams) -> Measured {
    summarize(profile).price(params)
}

/// Export the Eq. 1 / Eq. 2 term-by-term breakdown of a run into a
/// metrics [`Registry`] under `prefix` — the attribution the paper's
/// whole argument rests on, as data instead of a closed form.
///
/// Per-rank **time** terms land in histograms (`{prefix}.eq1.*_ns`,
/// one sample per rank, virtual nanoseconds): `γt·F`, `βt·W`, `αt·S`
/// evaluated on that rank's own counters, so the distributions show
/// which term stops shrinking when strong scaling ends. Whole-run
/// **energy** terms accumulate in counters (`{prefix}.eq2.*_nj`,
/// nanojoules): `γe·F`, `βe·W`, `αe·S` on the totals (resilience
/// traffic folded in, as in [`summarize`]), plus the `δe·M·p·T` memory
/// and `εe·p·T` leakage terms.
///
/// Errors only on metric-kind collisions under `prefix`.
pub fn export_eq_terms(
    profile: &Profile,
    params: &MachineParams,
    reg: &Registry,
    prefix: &str,
) -> Result<(), String> {
    let h_flops = reg.histogram(&format!("{prefix}.eq1.flops_ns"))?;
    let h_words = reg.histogram(&format!("{prefix}.eq1.words_ns"))?;
    let h_msgs = reg.histogram(&format!("{prefix}.eq1.msgs_ns"))?;
    for (r, o) in profile.ranks() {
        h_flops.record_secs(params.gamma_t * r.flops as f64);
        h_words.record_secs(params.beta_t * (r.words_sent + o.retrans_words) as f64);
        h_msgs.record_secs(params.alpha_t * (r.msgs_sent + o.retrans_msgs) as f64);
    }
    let s = summarize(profile);
    let t = profile.makespan;
    let p = profile.p() as f64;
    let mem = s.mem_peak_words;
    let nj = |joules: f64| saturating_nanos(joules); // same 1e9 scale
    for (name, joules) in [
        ("flops_nj", params.gamma_e * s.total_flops),
        ("words_nj", params.beta_e * s.total_words),
        ("msgs_nj", params.alpha_e * s.total_messages),
        ("memory_nj", params.delta_e * mem * p * t),
        ("leakage_nj", params.epsilon_e * p * t),
    ] {
        reg.counter(&format!("{prefix}.eq2.{name}"))?
            .add(nj(joules));
    }
    Ok(())
}

/// [`measure`] plus a full registry export: prices the run, then
/// records the Eq. 1/2 term breakdown ([`export_eq_terms`]) and the
/// raw per-rank accounting (`Profile::export_metrics`) under `prefix`.
pub fn measure_into(
    profile: &Profile,
    params: &MachineParams,
    reg: &Registry,
    prefix: &str,
) -> Result<Measured, String> {
    profile.export_metrics(reg, prefix)?;
    export_eq_terms(profile, params, reg, prefix)?;
    Ok(measure(profile, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_sim::prelude::*;

    fn machine() -> MachineParams {
        MachineParams::builder()
            .gamma_t(1e-9)
            .beta_t(1e-8)
            .alpha_t(1e-6)
            .gamma_e(2e-9)
            .beta_e(3e-8)
            .alpha_e(1e-6)
            .delta_e(1e-10)
            .epsilon_e(0.01)
            .max_message_words(512.0)
            .mem_words(1e9)
            .build()
            .unwrap()
    }

    #[test]
    fn sim_config_mirrors_machine() {
        let mp = machine();
        let cfg = sim_config_from(&mp);
        assert_eq!(cfg.gamma_t, 1e-9);
        assert_eq!(cfg.beta_t, 1e-8);
        assert_eq!(cfg.alpha_t, 1e-6);
        assert_eq!(cfg.max_message_words, 512);
        assert_eq!(cfg.mem_limit_words, Some(1_000_000_000));
    }

    #[test]
    fn infinite_memory_means_no_limit() {
        let mp = MachineParams::builder()
            .gamma_t(1e-9)
            .max_message_words(f64::INFINITY)
            .build()
            .unwrap();
        let cfg = sim_config_from(&mp);
        assert_eq!(cfg.mem_limit_words, None);
        assert_eq!(cfg.max_message_words, usize::MAX);
    }

    #[test]
    fn summary_and_price_from_a_real_run() {
        let mp = machine();
        let cfg = sim_config_from(&mp);
        let out = Machine::run(4, cfg, |rank| {
            rank.alloc(1000)?;
            rank.compute(10_000);
            let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64; 100])?;
            rank.free(1000)?;
            Ok(v[0])
        })
        .unwrap();
        let s = summarize(&out.profile);
        assert_eq!(s.p, 4);
        assert_eq!(s.mem_peak_words, 1000.0);
        assert!(s.total_flops >= 4.0 * 10_000.0); // + reduction adds
        assert_eq!(s.makespan, Some(out.profile.makespan));

        let m = measure(&out.profile, &mp);
        assert_eq!(m.time, out.profile.makespan);
        assert!(m.energy > 0.0);
        assert!((m.power - m.energy / m.time).abs() / m.power < 1e-12);
    }

    #[test]
    fn two_level_pricing_splits_traffic_by_link() {
        use psse_core::twolevel::TwoLevelParams;
        let tl = TwoLevelParams {
            nodes: 2,
            cores_per_node: 2,
            gamma_t: 1e-9,
            gamma_e: 1e-9,
            beta_n_t: 1e-6,
            beta_n_e: 1e-6,
            beta_l_t: 1e-8,
            beta_l_e: 1e-8,
            delta_n_e: 0.0,
            delta_l_e: 0.0,
            epsilon_e: 0.0,
            mem_node: 1.0,
            mem_local: 1.0,
        };
        let cfg = sim_config_two_level(&tl);
        // Rank 0 sends 100 words to its node-mate (1) and 100 to a
        // remote rank (2).
        let out = Machine::run(4, cfg, |rank| {
            match rank.rank() {
                0 => {
                    rank.send(1, Tag(0), vec![0.0; 100])?;
                    rank.send(2, Tag(1), vec![0.0; 100])?;
                }
                1 => {
                    rank.recv(0, Tag(0))?;
                }
                2 => {
                    rank.recv(0, Tag(1))?;
                }
                _ => {}
            }
            Ok(())
        })
        .unwrap();
        let m = measure_two_level(&out.profile, &tl);
        // Word energy: 100 intra at 1e-8 + 100 inter at 1e-6.
        let expected = 100.0 * 1e-8 + 100.0 * 1e-6;
        assert!((m.energy - expected).abs() / expected < 1e-12);
        // Makespan: rank 0's sends, 100·(1e-8 + 1e-6).
        assert!((m.time - 100.0 * (1e-8 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn measure_into_exports_eq_terms_and_prices_identically() {
        use psse_metrics::SnapshotValue;
        let mp = machine();
        let cfg = sim_config_from(&mp);
        let out = Machine::run(4, cfg, |rank| {
            rank.compute(10_000);
            let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64; 100])?;
            Ok(v[0])
        })
        .unwrap();
        let reg = Registry::new();
        let m = measure_into(&out.profile, &mp, &reg, "sim").unwrap();
        // Pricing is unchanged by the export.
        let plain = measure(&out.profile, &mp);
        assert_eq!(m.time, plain.time);
        assert_eq!(m.energy, plain.energy);

        let snap = reg.snapshot();
        // Per-rank Eq. 1 terms: one sample per rank.
        match snap.get("sim.eq1.flops_ns") {
            Some(SnapshotValue::Histogram(h)) => assert_eq!(h.count(), 4),
            other => panic!("expected histogram, got {other:?}"),
        }
        // Eq. 2 terms cover every energy component and sum (in nJ,
        // up to per-term rounding) to the priced energy.
        let mut nj_sum = 0u128;
        for name in [
            "sim.eq2.flops_nj",
            "sim.eq2.words_nj",
            "sim.eq2.msgs_nj",
            "sim.eq2.memory_nj",
            "sim.eq2.leakage_nj",
        ] {
            match snap.get(name) {
                Some(SnapshotValue::Counter(v)) => nj_sum += *v as u128,
                other => panic!("missing {name}: {other:?}"),
            }
        }
        let total_nj = m.energy * 1e9;
        assert!(
            (nj_sum as f64 - total_nj).abs() <= 5.0,
            "eq2 terms {nj_sum} nJ vs priced {total_nj} nJ"
        );
        // The raw profile export rode along.
        assert!(snap.get("sim.total.flops").is_some());
    }

    #[test]
    fn sim_splitting_matches_model_message_count() {
        // A k-word transfer with m-word messages must count ceil(k/m)
        // messages — the model's S = W/m.
        let mp = machine(); // m = 512
        let cfg = sim_config_from(&mp);
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![0.0; 2000])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.profile.per_rank()[0].msgs_sent, 4); // ceil(2000/512)
    }
}
