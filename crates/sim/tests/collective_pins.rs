//! Every public `Rank` collective, pinned bit for bit on the thread
//! machine: for each collective, one digest of every run's profile
//! (makespan, every rank's counters, clock and overhead block), its
//! trace (each event's clock bits and its text) and its results' bits.
//!
//! Each collective runs on groups of `g` ∈ {1, 2, 3, 5, 8, 13} members
//! (the hypercube on the powers of two among them) in three layouts —
//! the world rooted at member 0, the world rooted at its last member,
//! and a scrambled subgroup of a larger machine rooted mid-group — on
//! a clean machine and under a drop + duplicate + delay plan with
//! retries. Messages are capped at three words, so most transfers split
//! into chunks. The values were captured from the hand-written trees
//! and rings; any rewrite of a collective must reproduce them exactly.

use psse_sim::prelude::*;

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

    fn values(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|x| self.u64(x.to_bits()));
    }
}

/// A collective's result, folded into a digest.
trait Fold {
    fn fold(&self, h: &mut Fnv);
}

impl Fold for Vec<f64> {
    fn fold(&self, h: &mut Fnv) {
        h.values(self);
    }
}

impl Fold for Vec<Vec<f64>> {
    fn fold(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        self.iter().for_each(|b| h.values(b));
    }
}

impl<T: Fold> Fold for Option<T> {
    fn fold(&self, h: &mut Fnv) {
        match self {
            Some(x) => {
                h.u64(1);
                x.fold(h);
            }
            None => h.u64(0),
        }
    }
}

fn cfg(faulted: bool) -> SimConfig {
    let faults = faulted.then(|| FaultPlan {
        spec: FaultSpec {
            seed: 11,
            drop_rate: 0.2,
            duplicate_rate: 0.15,
            delay_rate: 0.1,
            delay_seconds: 1e-4,
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

/// `len` values particular to rank `r` and `salt`.
fn vals(r: usize, salt: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|k| ((r * 131 + salt * 17 + k * 7) as f64 * 0.37).sin())
        .collect()
}

/// Where a collective runs: the machine size, the group and its root.
struct Layout {
    p: usize,
    group: Group,
    root: usize,
}

/// The three layouts of a `g`-member group.
fn layouts(g: usize) -> [Layout; 3] {
    let world = || Group::world(g);
    // Of `g + 2` ranks, all but 0 and `g`, in descending order.
    let p = g + 2;
    let members: Vec<usize> = std::iter::once(p - 1).chain((1..p - 2).rev()).collect();
    let sub = Group::new(members).unwrap();
    let root = sub.member(g / 2);
    [
        Layout {
            p: g,
            group: world(),
            root: 0,
        },
        Layout {
            p: g,
            group: world(),
            root: g - 1,
        },
        Layout {
            p,
            group: sub,
            root,
        },
    ]
}

/// What a member of a collective is told: the group, the root, its
/// global rank and its group index.
struct Call<'a> {
    group: &'a Group,
    root: usize,
    me: usize,
    idx: usize,
}

/// Run `body` on every member of every layout of every `g` in `sizes`
/// (non-members sit the run out), and fold the outcomes. Returns the
/// total retries, so a caller can check the fault plan bit.
fn fold<T: Fold + Send>(
    h: &mut Fnv,
    faulted: bool,
    sizes: &[usize],
    body: impl Fn(&mut Rank, Call) -> Result<T, SimError> + Sync,
) -> u64 {
    let mut retries = 0;
    for &g in sizes {
        for layout in layouts(g) {
            let out = Machine::run(layout.p, cfg(faulted), |rank| {
                let me = rank.rank();
                let Some(idx) = layout.group.index_of(me) else {
                    return Ok(None);
                };
                let call = Call {
                    group: &layout.group,
                    root: layout.root,
                    me,
                    idx,
                };
                body(rank, call).map(Some)
            })
            .unwrap_or_else(|e| panic!("g = {g}, p = {}: {e:?}", layout.p));
            let profile = &out.profile;
            h.u64(layout.p as u64);
            h.u64(profile.makespan.to_bits());
            for (r, (s, o)) in profile.ranks().enumerate() {
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
                h.text(&format!("{o:?}"));
                h.u64(profile.events[r].len() as u64);
                for e in &profile.events[r] {
                    h.u64(e.t_start.to_bits());
                    h.u64(e.t_end.to_bits());
                    h.text(&format!("{:?}", e.kind));
                }
            }
            out.results.iter().for_each(|x| x.fold(h));
            retries += profile.total_retries();
        }
    }
    retries
}

const SIZES: [usize; 6] = [1, 2, 3, 5, 8, 13];
const TAG: Tag = Tag(1000);

/// Check one collective's digests, clean and faulted, against its pins.
fn check<T: Fold + Send>(
    what: &str,
    sizes: &[usize],
    pins: [u64; 2],
    body: impl Fn(&mut Rank, Call) -> Result<T, SimError> + Sync + Copy,
) {
    let mut bad = Vec::new();
    for (faulted, pin) in [false, true].into_iter().zip(pins) {
        let mut h = Fnv::new();
        let retries = fold(&mut h, faulted, sizes, body);
        assert_eq!(retries > 0, faulted, "{what}: the plan bites iff present");
        if h.0 != pin {
            bad.push(format!("{what}, faulted={faulted}: digest {:#018x}", h.0));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn broadcast_is_pinned() {
    check("broadcast", &SIZES, BROADCAST, |rank, c| {
        let data = (c.me == c.root).then(|| vals(c.me, 1, 11));
        rank.broadcast(TAG, c.group, c.root, data)
    });
}

#[test]
fn reduce_sum_is_pinned() {
    check("reduce_sum", &SIZES, REDUCE_SUM, |rank, c| {
        rank.reduce_sum(TAG, c.group, c.root, vals(c.me, 2, 9))
    });
}

#[test]
fn allreduce_sum_group_is_pinned() {
    check("allreduce_sum_group", &SIZES, ALLREDUCE, |rank, c| {
        rank.allreduce_sum_group(TAG, c.group, vals(c.me, 3, 9))
    });
}

#[test]
fn allgather_is_pinned() {
    check("allgather", &SIZES, ALLGATHER, |rank, c| {
        rank.allgather(TAG, c.group, vals(c.me, 4, c.idx % 3 + 1))
    });
}

#[test]
fn alltoall_is_pinned() {
    check("alltoall", &SIZES, ALLTOALL, |rank, c| {
        let g = c.group.len();
        let blocks = (0..g).map(|j| vals(c.me, 5 + j, (c.idx + j) % 4)).collect();
        rank.alltoall(TAG, c.group, blocks)
    });
}

#[test]
fn scatter_is_pinned() {
    check("scatter", &SIZES, SCATTER, |rank, c| {
        let g = c.group.len();
        let blocks =
            (c.me == c.root).then(|| (0..g).map(|j| vals(c.me, 6 + j, j % 3 + 2)).collect());
        rank.scatter(TAG, c.group, c.root, blocks)
    });
}

#[test]
fn gather_is_pinned() {
    check("gather", &SIZES, GATHER, |rank, c| {
        rank.gather(TAG, c.group, c.root, vals(c.me, 7, c.idx % 2 + 1))
    });
}

#[test]
fn reduce_scatter_sum_is_pinned() {
    check("reduce_scatter_sum", &SIZES, REDUCE_SCATTER, |rank, c| {
        rank.reduce_scatter_sum(TAG, c.group, vals(c.me, 8, 17))
    });
}

#[test]
fn broadcast_large_is_pinned() {
    check("broadcast_large", &SIZES, BROADCAST_LARGE, |rank, c| {
        let data = (c.me == c.root).then(|| vals(c.me, 9, 23));
        rank.broadcast_large(TAG, c.group, c.root, data)
    });
}

#[test]
fn reduce_sum_large_is_pinned() {
    check("reduce_sum_large", &SIZES, REDUCE_SUM_LARGE, |rank, c| {
        rank.reduce_sum_large(TAG, c.group, c.root, vals(c.me, 10, 19))
    });
}

#[test]
fn alltoall_hypercube_is_pinned() {
    check("alltoall_hypercube", &[1, 2, 8], HYPERCUBE, |rank, c| {
        let g = c.group.len();
        let blocks = (0..g)
            .map(|j| vals(c.me, 11 + j, (c.idx * j) % 3 + 1))
            .collect();
        rank.alltoall_hypercube(TAG, c.group, blocks)
    });
}

// The digests, `[clean, faulted]`.
const BROADCAST: [u64; 2] = [0x7604_a5ea_d1e9_88ac, 0xbcad_6187_0d50_ba31];
const REDUCE_SUM: [u64; 2] = [0x5d7e_2310_8ce6_3dd5, 0x5e04_a9ab_222e_378c];
const ALLREDUCE: [u64; 2] = [0x10ae_53de_49ef_2800, 0xba17_3533_e9ba_b266];
const ALLGATHER: [u64; 2] = [0x35e7_35a6_6933_2a07, 0xa5b9_48a6_782e_3323];
const ALLTOALL: [u64; 2] = [0x2148_1006_8250_a57b, 0xa8c8_25f4_6eb8_1cc8];
const SCATTER: [u64; 2] = [0x9782_70ec_1b45_6d02, 0xe112_6d2b_200f_5b61];
const GATHER: [u64; 2] = [0x932e_9061_0d04_6db7, 0x8ea5_ec7c_6bd4_0ea9];
const REDUCE_SCATTER: [u64; 2] = [0x581d_4b2a_ca4b_ac57, 0x6caf_21ec_b4d0_4bdd];
const BROADCAST_LARGE: [u64; 2] = [0xb1c8_3fd0_b90d_762b, 0xd4c4_8bd3_d2e7_2f98];
const REDUCE_SUM_LARGE: [u64; 2] = [0x62a0_52c0_770c_8aab, 0x6ec7_8f16_ba83_ade2];
const HYPERCUBE: [u64; 2] = [0x670c_ca0e_08e8_d8be, 0x552d_a4c6_0b59_55fd];
