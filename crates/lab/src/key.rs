//! Content-addressed run identities.
//!
//! A [`RunKey`] captures *everything* that determines the outcome of one
//! simulator or model evaluation: the run kind, the algorithm, the
//! problem/machine coordinates, the input seed and the (optional) fault
//! plan. Two keys with equal digests are the same experiment, so the
//! digest is the address under which results are memoized — in memory
//! and, optionally, on disk under `bench_results/.labcache/`.
//!
//! The digest is built from the workspace's existing splitmix64
//! machinery ([`psse_faults::rng::KeyHasher`], the fold behind
//! `hash_key`): every field is reduced to `u64` words (floats via
//! [`f64::to_bits`], strings via chunked byte packing) and the word
//! stream is folded through two chains with independent salts, yielding
//! a 128-bit [`Digest`]. The mapping contains **no** process-dependent
//! state (no `RandomState`, no pointers), so digests are stable across
//! runs, platforms and process invocations.
//!
//! Inside the engine a digest travels as its two words; the 32-character
//! hex spelling exists only where a digest meets a file (journal lines,
//! `.rec` names, profile JSON) or a human.

use std::sync::Arc;

use psse_core::params::MachineParams;
use psse_faults::rng::{mix64, packed_words, KeyHasher};
use psse_hbl::prelude::{derive, HblError, Kernel, KernelCost};
use psse_sim::prelude::FaultPlan;
use psse_sim::Backend;

use crate::vocab::{C, F, HALO, ITERS, SEED};

/// A 128-bit content digest: the `hi` and `lo` chain values. `Display`
/// is the 32-lowercase-hex spelling used in journals, `.rec` file names
/// and summaries; [`Digest::from_hex`] is its inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest(pub [u64; 2]);

/// A digest hashes as its two words, which the lab's digest-keyed maps
/// fold with a keyed splitmix64 mix instead of SipHash.
impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0[0]);
        state.write_u64(self.0[1]);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of the maps keyed by
/// [`Digest`] (the journal's replay map among them): each word is folded in with one splitmix64 mix, a
/// fraction of SipHash's cost on words that are already uniform. The
/// fold starts from a random key per map, because journal lines are
/// outside input with unkeyed checksums: under a fixed hash a crafted
/// journal could put every replayed digest in one bucket and make a
/// resume quadratic. Nothing iterates these maps into emitted bytes, so
/// their order is free.
#[derive(Debug, Clone, Copy)]
pub struct DigestState(u64);

impl Default for DigestState {
    fn default() -> DigestState {
        use std::hash::BuildHasher;
        DigestState(std::collections::hash_map::RandomState::new().hash_one(0u64))
    }
}

impl std::hash::BuildHasher for DigestState {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher(self.0)
    }
}

/// The running fold of a [`DigestState`] map.
#[derive(Debug)]
pub struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        packed_words(bytes, |word| self.0 = mix64(self.0 ^ word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }
}

/// `Digest → V` under [`DigestState`].
pub type DigestMap<V> = std::collections::HashMap<Digest, V, DigestState>;

/// A set of digests under [`DigestState`].
pub(crate) type DigestSet = std::collections::HashSet<Digest, DigestState>;

impl Digest {
    /// The 32 lowercase hex characters, on the stack.
    pub fn hex(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&crate::result::hex16(self.0[0]));
        out[16..].copy_from_slice(&crate::result::hex16(self.0[1]));
        out
    }

    /// Parse the 32-character spelling: two 16-digit hex halves.
    pub fn from_hex(hex: &[u8]) -> Option<Digest> {
        let mut cursor = crate::result::Cursor(hex);
        let digest = cursor.digest()?;
        cursor.0.is_empty().then_some(digest)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(std::str::from_utf8(&self.hex()).expect("hex digits are ASCII"))
    }
}

/// A spelling of a run digest that the cache and the journal accept:
/// the engine's own [`Digest`], or the 32-hex text [`RunKey::digest`]
/// returns. Text that is not 32 hex characters names no run (`None`).
pub trait AsDigest {
    /// The digest this value spells, if it spells one.
    fn as_digest(&self) -> Option<Digest>;
}

impl AsDigest for Digest {
    fn as_digest(&self) -> Option<Digest> {
        Some(*self)
    }
}

impl AsDigest for str {
    fn as_digest(&self) -> Option<Digest> {
        Digest::from_hex(self.as_bytes())
    }
}

impl AsDigest for String {
    fn as_digest(&self) -> Option<Digest> {
        self.as_str().as_digest()
    }
}

impl<T: AsDigest + ?Sized> AsDigest for &T {
    fn as_digest(&self) -> Option<Digest> {
        (**self).as_digest()
    }
}

/// An HBL kernel file compiled for a sweep: the file's text, which is
/// the run identity, and the cost model derived from it. The HBL
/// exponent is a property of the loop nest's subscripts, not of
/// `(n, p, M)`, so [`KernelModel::compile`] runs once per spec and every
/// expanded key shares the result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModel {
    text: String,
    cost: KernelCost,
}

impl KernelModel {
    /// Parse the kernel text and derive its cost model (lattice closure
    /// and the exact-rational LP). Errors carry the kernel's own line
    /// numbers.
    pub fn compile(text: &str) -> Result<KernelModel, HblError> {
        let (cost, _) = derive(&Kernel::parse(text)?)?;
        Ok(KernelModel {
            text: text.to_string(),
            cost,
        })
    }

    /// The kernel file's full text (what the digest covers).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The derived cost model.
    pub fn cost(&self) -> &KernelCost {
        &self.cost
    }
}

/// What kind of execution a [`RunKey`] requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// Evaluate the paper's analytic cost model (Eqs. 1–2) at a point.
    Model,
    /// Run the real algorithm on the virtual machine and measure it.
    Simulate,
}

impl RunKind {
    /// Stable one-word tag folded into the digest.
    fn tag(self) -> u64 {
        match self {
            RunKind::Model => 1,
            RunKind::Simulate => 2,
        }
    }

    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::Model => "model",
            RunKind::Simulate => "simulate",
        }
    }
}

impl std::str::FromStr for RunKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "model" => Ok(RunKind::Model),
            "simulate" | "sim" => Ok(RunKind::Simulate),
            other => Err(format!("unknown run kind `{other}` (model|simulate)")),
        }
    }
}

/// The full identity of one experiment. Equality of digests ⇔ same
/// experiment; see the module docs for the hashing scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// Model evaluation or simulator execution.
    pub kind: RunKind,
    /// Canonical algorithm id (`matmul`, `nbody`, `mm25d`, ...). The
    /// valid set depends on `kind`; see [`crate::runner`].
    pub alg: String,
    /// Problem size.
    pub n: u64,
    /// Processor count.
    pub p: u64,
    /// Replication factor (2.5D `c`, n-body team count). `1` when the
    /// algorithm has no such knob.
    pub c: u64,
    /// Memory per processor in words. `0.0` means "the algorithm's
    /// minimal memory at `(n, p)`" for model runs; ignored by simulator
    /// runs (the simulator allocates what the algorithm needs).
    pub mem: f64,
    /// n-body flops per interaction (`f`); ignored by other algorithms.
    pub f: f64,
    /// Input seed for simulator runs (matrix/particle generation).
    pub seed: u64,
    /// For model runs: clamp an out-of-range `mem` into
    /// `[min_memory, max_useful_memory]` instead of marking the point
    /// infeasible. Used to chart the bend past the strong-scaling limit.
    pub clamp_mem: bool,
    /// The machine the run is priced on, shared by every key of a sweep
    /// as a refcount (a key is a few words, not a copy of the machine).
    pub machine: Arc<MachineParams>,
    /// Optional fault plan (simulator runs only), shared the same way.
    pub faults: Option<Arc<FaultPlan>>,
    /// Which simulator backend executes the run (simulator runs only;
    /// model runs ignore it). Both backends are bit-identical by
    /// contract, but the backend is still part of the identity so a
    /// cross-backend comparison sweep gets distinct cache slots.
    pub backend: Backend,
    /// The compiled HBL kernel (model runs only), shared by every key of
    /// a sweep as a refcount. When set, the runner prices from its
    /// derived cost model instead of looking `alg` up in the hand-written
    /// table. Only the kernel *text* enters the digest, so editing a
    /// kernel file invalidates its cache slots even when the path is
    /// unchanged, and the key stays self-contained: the file is not read
    /// again after [`crate::spec::SweepSpec::parse`].
    pub kernel: Option<Arc<KernelModel>>,
    /// Stencil halo width (`alg = stencil` only; ignored elsewhere).
    /// Default 1 — the default pair `(halo, iters) = (1, 4)` adds
    /// nothing to the digest word stream, preserving every pre-stencil
    /// digest.
    pub halo: u64,
    /// Stencil sweep count (`alg = stencil` only). Default 4.
    pub iters: u64,
}

/// The `(halo, iters)` pair that leaves the digest word stream
/// untouched (pre-stencil layout compatibility).
pub const STENCIL_DEFAULTS: (u64, u64) = (HALO.default, ITERS.default);

impl RunKey {
    /// A model-run key with the common defaults (`c = 1`, minimal
    /// memory, `f = 20`, seed 42, no clamping, no faults). `machine` is
    /// a [`MachineParams`] or an already shared `Arc` of one.
    pub fn model(alg: &str, n: u64, p: u64, machine: impl Into<Arc<MachineParams>>) -> RunKey {
        RunKey {
            kind: RunKind::Model,
            alg: alg.to_string(),
            n,
            p,
            c: C.default,
            mem: 0.0,
            f: F.default,
            seed: SEED.default,
            clamp_mem: false,
            machine: machine.into(),
            faults: None,
            backend: Backend::Threads,
            kernel: None,
            halo: STENCIL_DEFAULTS.0,
            iters: STENCIL_DEFAULTS.1,
        }
    }

    /// A simulator-run key with the common defaults.
    pub fn simulate(alg: &str, n: u64, p: u64, machine: impl Into<Arc<MachineParams>>) -> RunKey {
        RunKey {
            kind: RunKind::Simulate,
            ..RunKey::model(alg, n, p, machine)
        }
    }

    /// Fold the key's canonical `u64` word stream into `h`. Field order
    /// is part of the format; extending the key must append words (or
    /// bump the salts) to avoid digest collisions with older layouts.
    fn fold_into(&self, h: &mut impl FnMut(u64)) {
        h(self.kind.tag());
        // Strings: length then packed little-endian 8-byte chunks, so
        // `("ab", "c")` and `("a", "bc")` cannot collide.
        packed_words(self.alg.as_bytes(), &mut *h);
        h(self.n);
        h(self.p);
        h(self.c);
        h(self.mem.to_bits());
        h(self.f.to_bits());
        h(self.seed);
        h(self.clamp_mem as u64);
        let m = &self.machine;
        for v in [
            m.gamma_t,
            m.beta_t,
            m.alpha_t,
            m.gamma_e,
            m.beta_e,
            m.alpha_e,
            m.delta_e,
            m.epsilon_e,
            m.max_message_words,
            m.mem_words,
        ] {
            h(v.to_bits());
        }
        match &self.faults {
            None => h(0),
            Some(plan) => {
                h(1);
                let s = &plan.spec;
                h(s.seed);
                for v in [
                    s.drop_rate,
                    s.corrupt_rate,
                    s.duplicate_rate,
                    s.delay_rate,
                    s.delay_seconds,
                ] {
                    h(v.to_bits());
                }
                h(s.crashes.len() as u64);
                for crash in &s.crashes {
                    h(crash.rank as u64);
                    h(crash.at.to_bits());
                }
                let r = &plan.recovery;
                h(r.max_retries as u64);
                h(r.retry_backoff.to_bits());
                match &r.checkpoint {
                    None => h(0),
                    Some(cp) => {
                        h(1);
                        h(cp.interval.to_bits());
                        h(cp.words);
                        h(cp.restart_seconds.to_bits());
                    }
                }
            }
        }
        // Appended after the fault block so every pre-backend digest is
        // preserved: the default (`Threads`) adds nothing, and only a
        // non-default backend extends the word stream.
        if self.backend != Backend::Threads {
            h(u64::from_le_bytes(*b"backend\0"));
            h(match self.backend {
                Backend::Threads => unreachable!(),
                Backend::Events => 1,
            });
        }
        // Same append-only discipline for the kernel text: absent (the
        // pre-kernel layout) adds nothing, present appends a marker plus
        // the length-prefixed packed bytes.
        if let Some(model) = &self.kernel {
            h(u64::from_le_bytes(*b"kernel\0\0"));
            packed_words(model.text().as_bytes(), &mut *h);
        }
        // Stencil knobs, same append-only discipline: the default pair
        // adds nothing, so every pre-stencil digest is preserved.
        if (self.halo, self.iters) != STENCIL_DEFAULTS {
            h(u64::from_le_bytes(*b"stencil\0"));
            h(self.halo);
            h(self.iters);
        }
    }

    /// The 128-bit content digest, as the engine carries it.
    ///
    /// Stable across processes (pure splitmix64 over the canonical word
    /// stream) and effectively injective: a grid would need ~2⁶⁴ keys
    /// before a birthday collision becomes likely.
    pub fn digest_bits(&self) -> Digest {
        // Two independent salted chains give 128 bits.
        let mut hi = KeyHasher::new(0x7073_7365_2d6c_6162); // "psse-lab"
        let mut lo = KeyHasher::new(0x6c61_6263_6163_6865); // "labcache"
        self.fold_into(&mut |w| {
            hi.push(w);
            lo.push(w);
        });
        Digest([hi.finish(), lo.finish()])
    }

    /// [`RunKey::digest_bits`] as 32 lowercase hex characters.
    pub fn digest(&self) -> String {
        self.digest_bits().to_string()
    }

    /// A short human-readable label for summaries and error messages.
    pub fn label(&self) -> String {
        format!(
            "{}:{} n={} p={} c={}{}{}{}{}",
            self.kind.as_str(),
            self.alg,
            self.n,
            self.p,
            self.c,
            if self.mem > 0.0 {
                format!(" M={:.6e}", self.mem)
            } else {
                String::new()
            },
            if self.faults.is_some() {
                " +faults"
            } else {
                ""
            },
            if self.backend != Backend::Threads {
                format!(" backend={}", self.backend)
            } else {
                String::new()
            },
            if (self.halo, self.iters) != STENCIL_DEFAULTS {
                format!(" halo={} iters={}", self.halo, self.iters)
            } else {
                String::new()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    /// Digests crafted to share one folded word (`hi ^ lo.rotl(32)`, as
    /// a fixed hash of the two words might use) still spread over the
    /// buckets of a digest-keyed map, whose fold is keyed per map.
    #[test]
    fn crafted_digests_do_not_share_a_bucket() {
        use std::hash::BuildHasher;
        let crafted: Vec<Digest> = (0..4096u64)
            .map(|i| Digest([i, (i ^ 0x5a5a).rotate_right(32)]))
            .collect();
        assert!(crafted
            .iter()
            .all(|d| d.0[0] ^ d.0[1].rotate_left(32) == 0x5a5a));
        let state = DigestState::default();
        let buckets: std::collections::HashSet<u64> =
            crafted.iter().map(|d| state.hash_one(d) & 0xffff).collect();
        // A uniform hash fills ~3970 of 65536 buckets with 4096 keys.
        assert!(buckets.len() > 3500, "{} buckets", buckets.len());
        let other = DigestState::default();
        assert!(crafted
            .iter()
            .any(|d| state.hash_one(d) != other.hash_one(d)));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let k = RunKey::model("nbody", 10_000, 64, jaketown());
        let d = k.digest();
        assert_eq!(d.len(), 32);
        assert_eq!(d, k.clone().digest());
        // Any field flip changes the digest.
        let mut k2 = k.clone();
        k2.p = 65;
        assert_ne!(d, k2.digest());
        let mut k3 = k.clone();
        k3.mem = 1.0;
        assert_ne!(d, k3.digest());
        let mut k4 = k.clone();
        Arc::make_mut(&mut k4.machine).beta_e *= 2.0;
        assert_ne!(d, k4.digest());
        let mut k5 = k.clone();
        k5.kind = RunKind::Simulate;
        assert_ne!(d, k5.digest());
        let mut k6 = k.clone();
        k6.clamp_mem = true;
        assert_ne!(d, k6.digest());
    }

    #[test]
    fn digest_is_stable_across_processes() {
        // Pinned value: if this changes, the on-disk cache format changed
        // and `.labcache` directories must be invalidated.
        let mut machine = MachineParams::builder()
            .gamma_t(1e-9)
            .beta_t(2e-8)
            .alpha_t(1e-6)
            .build()
            .unwrap();
        machine.mem_words = 1e12;
        let k = RunKey {
            kind: RunKind::Model,
            alg: "nbody".into(),
            n: 10_000,
            p: 50,
            c: 1,
            mem: 1000.0,
            f: 10.0,
            seed: 42,
            clamp_mem: false,
            machine: Arc::new(machine),
            faults: None,
            backend: Backend::Threads,
            kernel: None,
            halo: 1,
            iters: 4,
        };
        assert_eq!(k.digest(), "9a71881ab929cb833887064fb2109475");
    }

    #[test]
    fn stencil_knobs_extend_the_identity_without_disturbing_old_digests() {
        // The default pair (halo = 1, iters = 4) must hash exactly as
        // the pre-stencil layout — the word stream is untouched — while
        // any other pair gets its own cache slot and a label suffix.
        let base = RunKey::simulate("stencil", 64, 4, jaketown());
        assert_eq!((base.halo, base.iters), STENCIL_DEFAULTS);
        assert!(!base.label().contains("halo="), "{}", base.label());
        let mut k = base.clone();
        k.halo = 2;
        assert_ne!(base.digest(), k.digest());
        let mut k2 = base.clone();
        k2.iters = 8;
        assert_ne!(base.digest(), k2.digest());
        assert_ne!(k.digest(), k2.digest());
        assert!(k2.label().ends_with(" halo=1 iters=8"), "{}", k2.label());
    }

    #[test]
    fn kernel_extends_the_identity_without_disturbing_old_digests() {
        // `None` (every pre-kernel key) must hash exactly as before,
        // while each distinct kernel *text* gets its own cache slot.
        let base = RunKey::model("kernel:matmul", 1024, 8, jaketown());
        let mut k = base.clone();
        let compiled = |text| Some(Arc::new(KernelModel::compile(text).unwrap()));
        k.kernel = compiled("for i in 0..n\nC[i] += A[i] * B[i]\n");
        assert_ne!(base.digest(), k.digest());
        let mut k2 = k.clone();
        k2.kernel = compiled("for i in 0..n\nC[i] += A[i] * D[i]\n");
        assert_ne!(k.digest(), k2.digest());
    }

    #[test]
    fn backend_extends_the_identity_without_disturbing_old_digests() {
        // `Threads` (the default) must hash exactly as the pre-backend
        // layout did — the word stream is untouched — while `Events`
        // gets its own cache slot and a visible label suffix.
        let base = RunKey::simulate("mm25d", 16, 8, jaketown());
        let mut ev = base.clone();
        ev.backend = Backend::Events;
        assert_ne!(base.digest(), ev.digest());
        assert!(!base.label().contains("backend="), "{}", base.label());
        assert!(ev.label().ends_with(" backend=events"), "{}", ev.label());
    }

    #[test]
    fn string_packing_avoids_concatenation_collisions() {
        let a = RunKey::model("ab", 4, 2, jaketown());
        let b = RunKey::model("a", 4, 2, jaketown());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn fault_plan_is_part_of_the_identity() {
        use psse_sim::prelude::{FaultPlan, FaultSpec, RecoveryPolicy};
        let mut k = RunKey::simulate("mm25d", 16, 8, jaketown());
        let free = k.digest();
        k.faults = Some(Arc::new(FaultPlan {
            spec: FaultSpec {
                seed: 7,
                drop_rate: 0.1,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 8,
                retry_backoff: 0.0,
                checkpoint: None,
            },
        }));
        let faulted = k.digest();
        assert_ne!(free, faulted);
        let mut k2 = k.clone();
        Arc::make_mut(k2.faults.as_mut().unwrap()).spec.drop_rate = 0.2;
        assert_ne!(faulted, k2.digest());
    }
}
