//! The step streams of the bulk-synchronous programs, pinned.
//!
//! `Stencil1D`, `Matmul25D`, `SampleSort`, the binomial allreduce and
//! the pairwise-round allreduces are each run through the scheduler
//! ([`EventMachine::run_general`]) with tracing on, counted and — all
//! but the 2.5D skeleton — with real data, on a clean machine and under
//! a drop-and-duplicate fault plan, over the degenerate shapes
//! `fastpath_identity.rs` covers. Each rank's event log carries every
//! send and receive with its peer, tag and word count, every flop count
//! and every collective marker, in program order; the digest folds
//! those logs, every `RankStats` bit, the fault counters and the
//! results' bits. A change to a program's tags, its step order or its
//! markers changes a digest even where profile totals and closed forms
//! cannot see it.

use psse_event::prelude::*;
use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The machine: cheap enough flops that sends dominate, and a message
/// cap small enough that halos, blocks and buckets split into chunks.
fn cfg(faulted: bool) -> SimConfig {
    let faults = faulted.then(|| FaultPlan {
        spec: FaultSpec {
            seed: 11,
            drop_rate: 0.2,
            duplicate_rate: 0.15,
            ..FaultSpec::default()
        },
        recovery: RecoveryPolicy {
            max_retries: 32,
            retry_backoff: 1e-4,
            checkpoint: None,
        },
    });
    SimConfig {
        gamma_t: 1e-9,
        beta_t: 1e-6,
        alpha_t: 1e-3,
        max_message_words: 3,
        record_trace: true,
        faults,
        ..SimConfig::default()
    }
}

/// Schedule `make`'s programs, fold the outcome into `h`, and return
/// the run's retries (so a caller can check the fault plan bit).
fn fold<P: RankProgram>(
    h: &mut Fnv,
    p: usize,
    cfg: &SimConfig,
    make: impl Fn(usize, usize) -> P,
    result: impl Fn(&P) -> Option<&[f64]>,
) -> u64 {
    let out = EventMachine::run_general(p, cfg, make).unwrap();
    let profile = &out.profile;
    assert_eq!(profile.events.len(), p, "traced: one log per rank");
    h.u64(p as u64);
    for (r, s) in profile.per_rank().iter().enumerate() {
        for x in [
            s.flops,
            s.words_sent,
            s.msgs_sent,
            s.words_recvd,
            s.msgs_recvd,
            s.mem_current,
            s.mem_peak,
            s.finish_time.to_bits(),
        ] {
            h.u64(x);
        }
        h.text(&format!("{:?}", profile.overheads_of(r)));
        h.u64(profile.events[r].len() as u64);
        for e in &profile.events[r] {
            h.u64(e.t_start.to_bits());
            h.u64(e.t_end.to_bits());
            h.text(&format!("{:?}", e.kind));
        }
    }
    h.u64(profile.makespan.to_bits());
    for program in &out.programs {
        match result(program) {
            Some(values) => {
                h.u64(values.len() as u64);
                values.iter().for_each(|v| h.u64(v.to_bits()));
            }
            None => h.u64(u64::MAX),
        }
    }
    profile.total_retries()
}

/// Compare a digest with its pin, printing the value to re-pin with.
fn pinned(what: &str, h: Fnv, pin: u64) {
    assert_eq!(
        h.0, pin,
        "{what}: step stream changed (digest {:#018x})",
        h.0
    );
}

/// Slab `p` ∈ {1, 2, 5} (one rank wraps its own halos; two ranks are
/// each other's north and south), one and three rows per slab, the halo
/// one row or the whole slab deep.
#[test]
fn stencil_step_streams_are_pinned() {
    let shapes = [(1, 1), (3, 1), (3, 3)];
    for (faulted, counted_pin, data_pin) in [
        (false, STENCIL_COUNTED, STENCIL_DATA),
        (true, STENCIL_COUNTED_FAULTED, STENCIL_DATA_FAULTED),
    ] {
        let cfg = cfg(faulted);
        let (mut counted, mut data, mut retries) = (Fnv::new(), Fnv::new(), 0);
        for p in [1usize, 2, 5] {
            for (rows, h) in shapes {
                let n = p * rows;
                let make = Stencil1D::counted(n, h, 2);
                retries += fold(&mut counted, p, &cfg, make, Stencil1D::result);
                let grid: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.7).sin()).collect();
                let make = Stencil1D::with_data(grid, n, h, 2);
                retries += fold(&mut data, p, &cfg, make, Stencil1D::result);
            }
        }
        assert_eq!(retries > 0, faulted, "the fault plan bites iff present");
        pinned(
            &format!("stencil counted, faulted={faulted}"),
            counted,
            counted_pin,
        );
        pinned(&format!("stencil data, faulted={faulted}"), data, data_pin);
    }
}

/// Grid edge `q` ∈ {1, 2, 6} and replication `c` ∈ {1, 3, q} with
/// `c | q`: every shift a self-send, no replication and no reduce, one
/// shift round, and a reduce tree of uneven depth.
#[test]
fn matmul_25d_step_streams_are_pinned() {
    for (faulted, pin) in [(false, MM25D), (true, MM25D_FAULTED)] {
        let cfg = cfg(faulted);
        let (mut h, mut retries) = (Fnv::new(), 0);
        for q in [1usize, 2, 6] {
            for c in [1, 3, q] {
                if q % c == 0 {
                    retries += fold(&mut h, q * q * c, &cfg, Matmul25D::counted(q, c, 2), |_| {
                        None
                    });
                }
            }
        }
        assert_eq!(retries > 0, faulted, "the fault plan bites iff present");
        pinned(&format!("2.5D, faulted={faulted}"), h, pin);
    }
}

/// Keys per rank `bs` ∈ {p, 3p}: one-key buckets, and buckets of three
/// (counted uniform; with data, as the keys fall).
#[test]
fn samplesort_step_streams_are_pinned() {
    for (faulted, counted_pin, data_pin) in [
        (false, SORT_COUNTED, SORT_DATA),
        (true, SORT_COUNTED_FAULTED, SORT_DATA_FAULTED),
    ] {
        let cfg = cfg(faulted);
        let (mut counted, mut data, mut retries) = (Fnv::new(), Fnv::new(), 0);
        for p in [1usize, 2, 5] {
            for bs in [p, 3 * p] {
                let make = SampleSort::counted(bs);
                retries += fold(&mut counted, p, &cfg, make, SampleSort::result);
                let keys: Vec<f64> = (0..p * bs)
                    .map(|i| ((i * 37) % (p * bs + 1)) as f64 - 4.5)
                    .collect();
                let make = SampleSort::with_data(keys);
                retries += fold(&mut data, p, &cfg, make, SampleSort::result);
            }
        }
        assert_eq!(retries > 0, faulted, "the fault plan bites iff present");
        pinned(
            &format!("sort counted, faulted={faulted}"),
            counted,
            counted_pin,
        );
        pinned(&format!("sort data, faulted={faulted}"), data, data_pin);
    }
}

/// The pairwise-round allreduces: the ring at `p` ∈ {1, 2, 5} and
/// recursive doubling at `p` ∈ {1, 2, 8}, counted and with data.
#[test]
fn pairwise_allreduce_step_streams_are_pinned() {
    for (faulted, counted_pin, data_pin) in [
        (false, PAIRWISE_COUNTED, PAIRWISE_DATA),
        (true, PAIRWISE_COUNTED_FAULTED, PAIRWISE_DATA_FAULTED),
    ] {
        let cfg = cfg(faulted);
        let (mut counted, mut data, mut retries) = (Fnv::new(), Fnv::new(), 0);
        let values: Vec<f64> = (0..7).map(|i| (i as f64 * 1.3).cos()).collect();
        for p in [1usize, 2, 5] {
            let make = RingAllreduce::counted(Tag(7), 7);
            retries += fold(&mut counted, p, &cfg, make, RingAllreduce::result);
            let make = RingAllreduce::with_data(Tag(7), values.clone());
            retries += fold(&mut data, p, &cfg, make, RingAllreduce::result);
        }
        for p in [1usize, 2, 8] {
            let make = RecursiveDoublingAllreduce::counted(Tag(9), 7);
            retries += fold(
                &mut counted,
                p,
                &cfg,
                make,
                RecursiveDoublingAllreduce::result,
            );
            let make = RecursiveDoublingAllreduce::with_data(Tag(9), values.clone());
            retries += fold(&mut data, p, &cfg, make, RecursiveDoublingAllreduce::result);
        }
        assert_eq!(retries > 0, faulted, "the fault plan bites iff present");
        pinned(
            &format!("pairwise counted, faulted={faulted}"),
            counted,
            counted_pin,
        );
        pinned(&format!("pairwise data, faulted={faulted}"), data, data_pin);
    }
}

/// The binomial allreduce at `p` ∈ {1, 2, 3, 5, 8, 13}: one rank (six
/// empty markers), a lone pair, trees with an unpaired last rank at
/// several levels, a full tree, and a ragged one.
#[test]
fn binomial_allreduce_step_streams_are_pinned() {
    for (faulted, counted_pin, data_pin) in [
        (false, BINOMIAL_COUNTED, BINOMIAL_DATA),
        (true, BINOMIAL_COUNTED_FAULTED, BINOMIAL_DATA_FAULTED),
    ] {
        let cfg = cfg(faulted);
        let (mut counted, mut data, mut retries) = (Fnv::new(), Fnv::new(), 0);
        let values: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).sin()).collect();
        for p in [1usize, 2, 3, 5, 8, 13] {
            let make = BinomialAllreduce::counted(Tag(5), 7);
            retries += fold(&mut counted, p, &cfg, make, BinomialAllreduce::result);
            let make = BinomialAllreduce::with_data(Tag(5), values.clone());
            retries += fold(&mut data, p, &cfg, make, BinomialAllreduce::result);
        }
        assert_eq!(retries > 0, faulted, "the fault plan bites iff present");
        pinned(
            &format!("binomial counted, faulted={faulted}"),
            counted,
            counted_pin,
        );
        pinned(&format!("binomial data, faulted={faulted}"), data, data_pin);
    }
}

// The digests, captured from the hand-written state machines these
// programs were before they became phase descriptions.
const STENCIL_COUNTED: u64 = 0x323f_db97_f03e_200e;
const STENCIL_DATA: u64 = 0x809e_5782_ca5f_98ef;
const STENCIL_COUNTED_FAULTED: u64 = 0xdf56_92c9_fd7a_569a;
const STENCIL_DATA_FAULTED: u64 = 0x729f_91eb_9d47_6467;
const MM25D: u64 = 0x542f_6576_723c_e263;
const MM25D_FAULTED: u64 = 0xcc43_5063_98ea_f6e7;
const SORT_COUNTED: u64 = 0xbfea_12d3_9c1c_bfa8;
const SORT_DATA: u64 = 0x232a_21bc_f6f9_dd4c;
const SORT_COUNTED_FAULTED: u64 = 0xae55_5e35_19a3_ea29;
const SORT_DATA_FAULTED: u64 = 0x3fdb_bef2_ffd5_0dea;
const PAIRWISE_COUNTED: u64 = 0x8176_62cf_ee70_e8a6;
const PAIRWISE_DATA: u64 = 0x62b6_64fa_49e3_a3fd;
const PAIRWISE_COUNTED_FAULTED: u64 = 0x65f2_af66_bbda_5c9d;
const PAIRWISE_DATA_FAULTED: u64 = 0x695f_a3e1_674c_a9be;
const BINOMIAL_COUNTED: u64 = 0x8079_8034_27a7_2925;
const BINOMIAL_DATA: u64 = 0x99f2_59ba_6b02_e357;
const BINOMIAL_COUNTED_FAULTED: u64 = 0xc046_a2ff_c4d0_2bd5;
const BINOMIAL_DATA_FAULTED: u64 = 0x3b49_d79a_dbd6_2085;
