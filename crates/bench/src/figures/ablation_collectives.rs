//! Ablation study of the collective-communication design choices
//! (flagged in `DESIGN.md`): the constants behind the cost models.
//!
//! 1. **Broadcast**: binomial tree vs scatter+allgather (van de Geijn) —
//!    root traffic and critical-path time across message sizes.
//! 2. **Reduction**: binomial vs reduce-scatter+gather.
//! 3. **All-to-all**: pairwise vs hypercube across the α/β ratio — the
//!    paper's FFT trade-off (`S = p` vs `S = log p`) made concrete.
//! 4. **SUMMA panel width**: the latency/bandwidth knob of the 2D
//!    baseline.
//! 5. **2.5D fiber collectives**: binomial vs scatter+allgather inside
//!    the full algorithm.

use super::Artifact;
use crate::report::{banner, sci, Table};
use psse_algos::mm25d::{matmul_25d_opts, FiberCollectives};
use psse_algos::prelude::*;
use psse_kernels::matrix::Matrix;
use psse_sim::machine::{Machine, SimConfig};
use psse_sim::message::Tag;
use psse_sim::prelude::Group;

fn timing_cfg(alpha: f64, beta: f64) -> SimConfig {
    SimConfig {
        gamma_t: 0.0,
        beta_t: beta,
        alpha_t: alpha,
        ..SimConfig::default()
    }
}

pub fn run() -> Vec<Artifact> {
    let mut out = Vec::new();
    banner("1. broadcast: binomial vs scatter+allgather");
    let p = 16;
    let mut t = Table::new(&[
        "payload (words)",
        "binomial root W",
        "sag root W",
        "binomial T",
        "sag T",
        "winner",
    ]);
    for len in [64usize, 1024, 16384, 262144] {
        let run = |large: bool| {
            Machine::run(p, timing_cfg(1e-5, 1e-9), move |rank| {
                let group = Group::world(rank.size());
                let data = if rank.rank() == 0 {
                    Some(vec![1.0; len])
                } else {
                    None
                };
                if large {
                    rank.broadcast_large(Tag(0), &group, 0, data)?;
                } else {
                    rank.broadcast(Tag(0), &group, 0, data)?;
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let bin = run(false);
        let sag = run(true);
        t.row(&[
            len.to_string(),
            bin.per_rank()[0].words_sent.to_string(),
            sag.per_rank()[0].words_sent.to_string(),
            sci(bin.makespan),
            sci(sag.makespan),
            if bin.makespan <= sag.makespan {
                "binomial"
            } else {
                "scatter+allgather"
            }
            .into(),
        ]);
    }
    println!("{}", t.render());
    out.push(("ablation_broadcast.csv", t.to_csv()));
    println!(
        "Small payloads: the binomial tree's log p latency wins. Large\n\
         payloads: scatter+allgather's ~2x root traffic (vs log p copies)\n\
         wins — exactly why 2.5D implementations pick per-phase collectives.\n"
    );

    banner("2. reduction: binomial vs reduce-scatter+gather");
    let mut t = Table::new(&[
        "payload",
        "binomial T",
        "rsg T",
        "binomial maxW",
        "rsg maxW",
    ]);
    for len in [64usize, 4096, 65536] {
        let run = |large: bool| {
            Machine::run(p, timing_cfg(1e-5, 1e-9), move |rank| {
                let group = Group::world(rank.size());
                let data = vec![1.0; len];
                if large {
                    rank.reduce_sum_large(Tag(0), &group, 0, data)?;
                } else {
                    rank.reduce_sum(Tag(0), &group, 0, data)?;
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let bin = run(false);
        let rsg = run(true);
        t.row(&[
            len.to_string(),
            sci(bin.makespan),
            sci(rsg.makespan),
            bin.max_words_sent().to_string(),
            rsg.max_words_sent().to_string(),
        ]);
    }
    println!("{}", t.render());
    out.push(("ablation_reduce.csv", t.to_csv()));

    banner("3. all-to-all: pairwise vs hypercube across alpha/beta");
    let mut t = Table::new(&["alpha/beta (words)", "pairwise T", "hypercube T", "winner"]);
    let block = 256usize;
    for ratio in [1e2, 1e4, 1e6] {
        let beta = 1e-9;
        let alpha = beta * ratio;
        let run = |hyper: bool| {
            Machine::run(p, timing_cfg(alpha, beta), move |rank| {
                let group = Group::world(rank.size());
                let blocks: Vec<Vec<f64>> = (0..p).map(|_| vec![1.0; block]).collect();
                if hyper {
                    rank.alltoall_hypercube(Tag(0), &group, blocks)?;
                } else {
                    rank.alltoall(Tag(0), &group, blocks)?;
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let pw = run(false);
        let hc = run(true);
        t.row(&[
            sci(ratio),
            sci(pw.makespan),
            sci(hc.makespan),
            if pw.makespan <= hc.makespan {
                "pairwise"
            } else {
                "hypercube"
            }
            .into(),
        ]);
    }
    println!("{}", t.render());
    out.push(("ablation_alltoall.csv", t.to_csv()));
    println!(
        "High-latency machines prefer the hypercube (log p messages, the\n\
         paper's 'tree-based all-to-all'); bandwidth-bound machines prefer\n\
         pairwise (each word crosses the network once).\n"
    );

    banner("4. SUMMA panel width (latency <-> bandwidth knob)");
    let n = 64;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut t = Table::new(&["panel", "T (s)", "total msgs", "total words"]);
    for panel in [1usize, 2, 4, 8, 16] {
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-9,
            alpha_t: 1e-5,
            ..SimConfig::default()
        };
        let (_, profile) = summa_matmul(&a, &b, 16, panel, cfg).unwrap();
        t.row(&[
            panel.to_string(),
            sci(profile.makespan),
            profile.total_msgs_sent().to_string(),
            profile.total_words_sent().to_string(),
        ]);
    }
    println!("{}", t.render());
    out.push(("ablation_summa_panel.csv", t.to_csv()));

    banner("5. 2.5D fiber collectives inside the full algorithm");
    let n = 64;
    let a = Matrix::random(n, n, 3);
    let b = Matrix::random(n, n, 4);
    let mut t = Table::new(&["strategy", "max W/rank", "max S/rank", "T (s)"]);
    for (name, fc) in [
        ("binomial", FiberCollectives::Binomial),
        ("scatter+allgather", FiberCollectives::ScatterAllgather),
    ] {
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 4e-9,
            alpha_t: 1e-7,
            ..SimConfig::default()
        };
        let (_, profile) = matmul_25d_opts(&a, &b, 64, 4, fc, cfg).unwrap();
        t.row(&[
            name.into(),
            profile.max_words_sent().to_string(),
            profile.max_msgs_sent().to_string(),
            sci(profile.makespan),
        ]);
    }
    println!("{}", t.render());
    out.push(("ablation_25d_fiber.csv", t.to_csv()));
    out
}
