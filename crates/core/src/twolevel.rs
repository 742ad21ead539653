//! Two-level machine model (paper Fig. 2, Eqs. 12 and 17).
//!
//! The machine is `pn` nodes, each with `pl` cores (`p = pn·pl`). There
//! are two communication levels (inter-node links priced `βnt`/`βne` per
//! word, intra-node links priced `βlt`/`βle`) and two memory levels (node
//! memory `Mn` priced `δne`, core-local memory `Ml` priced `δle`).
//! Latency terms are elided exactly as in the paper ("It can be added by
//! substituting β = β·m + α").
//!
//! ## Transcription note
//!
//! Our source text of the paper renders Eqs. 12 and 17 with damaged
//! sub/superscripts, so both are **re-derived from the machine model**
//! here. For the n-body problem the derivation (with every core
//! participating in node-level communication) reproduces the printed
//! Eq. 17 term by term — see `eq17_term_by_term_matches_generic` in the
//! tests. For matrix multiplication the printed Eq. 12's runtime says
//! node-level transfers take `βnt·n³/(pn·√Mn)` (node-granular), while its
//! energy line charges inter-node words at a rate inconsistent with that
//! runtime by a factor of `pl²`; we keep the runtime (node-granular
//! traffic, [`NodeTraffic::PerNode`]) and price energy consistently with
//! it.

use crate::error::CoreError;
use crate::Real;

/// Who generates node-level (inter-node) traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTraffic {
    /// One network endpoint per node: per-core inter-node word counts are
    /// the per-node counts, and only `pn` endpoints pay word energy.
    /// (Matches the runtime line of paper Eq. 12.)
    PerNode,
    /// Every core participates in inter-node communication: all `p`
    /// cores pay word time and energy. (Matches paper Eq. 17.)
    PerCore,
}

/// Parameters of the two-level machine of paper Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelParams {
    /// Number of nodes, `pn`.
    pub nodes: u64,
    /// Cores per node, `pl`.
    pub cores_per_node: u64,
    /// `γt` — seconds per flop (per core).
    pub gamma_t: Real,
    /// `γe` — joules per flop.
    pub gamma_e: Real,
    /// `βnt` — seconds per word on inter-node links.
    pub beta_n_t: Real,
    /// `βne` — joules per word on inter-node links.
    pub beta_n_e: Real,
    /// `βlt` — seconds per word on intra-node links.
    pub beta_l_t: Real,
    /// `βle` — joules per word on intra-node links.
    pub beta_l_e: Real,
    /// `δne` — joules per stored word per second in node memory.
    pub delta_n_e: Real,
    /// `δle` — joules per stored word per second in core-local memory.
    pub delta_l_e: Real,
    /// `εe` — leakage joules per second per core.
    pub epsilon_e: Real,
    /// `Mn` — node memory, words.
    pub mem_node: Real,
    /// `Ml` — core-local memory, words.
    pub mem_local: Real,
}

/// Per-core cost profile on the two-level machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevelCosts {
    /// Flops per core.
    pub flops: Real,
    /// Inter-node words, per node ([`NodeTraffic::PerNode`]) or per core
    /// ([`NodeTraffic::PerCore`]) according to the model in use.
    pub words_node: Real,
    /// Intra-node words per core.
    pub words_local: Real,
    /// Traffic model for `words_node`.
    pub traffic: NodeTraffic,
}

impl TwoLevelParams {
    /// Total core count `p = pn·pl`.
    pub fn p(&self) -> u64 {
        self.nodes * self.cores_per_node
    }

    /// Validate physical invariants.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.nodes == 0 || self.cores_per_node == 0 {
            return Err(CoreError::InvalidConfiguration(
                "two-level machine needs nodes >= 1 and cores_per_node >= 1".into(),
            ));
        }
        for (name, v) in [
            ("gamma_t", self.gamma_t),
            ("mem_node", self.mem_node),
            ("mem_local", self.mem_local),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
        }
        for (name, v) in [
            ("gamma_e", self.gamma_e),
            ("beta_n_t", self.beta_n_t),
            ("beta_n_e", self.beta_n_e),
            ("beta_l_t", self.beta_l_t),
            ("beta_l_e", self.beta_l_e),
            ("delta_n_e", self.delta_n_e),
            ("delta_l_e", self.delta_l_e),
            ("epsilon_e", self.epsilon_e),
        ] {
            if v.is_nan() || v < 0.0 {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
        }
        Ok(())
    }

    /// Runtime on the two-level machine:
    /// `T = γt·F + βnt·Wn + βlt·Wl` (per-core critical path; no overlap,
    /// latency elided per the paper).
    pub fn time(&self, c: &TwoLevelCosts) -> Real {
        self.gamma_t * c.flops + self.beta_n_t * c.words_node + self.beta_l_t * c.words_local
    }

    /// Energy on the two-level machine:
    ///
    /// ```text
    /// E = γe·(total flops) + βne·(total inter-node words)
    ///   + βle·(total intra-node words)
    ///   + (pn·δne·Mn + p·δle·Ml + p·εe)·T
    /// ```
    ///
    /// where totals follow the traffic model of `c`.
    pub fn energy(&self, c: &TwoLevelCosts, t: Real) -> Real {
        let p = self.p() as Real;
        let pn = self.nodes as Real;
        let node_endpoints = match c.traffic {
            NodeTraffic::PerNode => pn,
            NodeTraffic::PerCore => p,
        };
        self.gamma_e * c.flops * p
            + self.beta_n_e * c.words_node * node_endpoints
            + self.beta_l_e * c.words_local * p
            + (pn * self.delta_n_e * self.mem_node
                + p * self.delta_l_e * self.mem_local
                + p * self.epsilon_e)
                * t
    }

    /// Cost profile of 2.5D matrix multiplication on the two-level
    /// machine (the Eq. 12 workload): node-granular inter-node traffic
    /// `Wn = n³/(pn·√Mn)` and per-core intra-node traffic
    /// `Wl = n³/(p·√Ml)`.
    pub fn matmul_costs(&self, n: u64) -> TwoLevelCosts {
        let nf = n as Real;
        let n3 = nf * nf * nf;
        TwoLevelCosts {
            flops: n3 / self.p() as Real,
            words_node: n3 / (self.nodes as Real * self.mem_node.sqrt()),
            words_local: n3 / (self.p() as Real * self.mem_local.sqrt()),
            traffic: NodeTraffic::PerNode,
        }
    }

    /// Cost profile of the data-replicating direct n-body algorithm on
    /// the two-level machine (the Eq. 17 workload): every core
    /// participates in node-level exchanges, `Wn = n²/(pn·Mn)` per core,
    /// and `Wl = n²/(p·Ml)` per core.
    pub fn nbody_costs(&self, n: u64, f: Real) -> TwoLevelCosts {
        let nf = n as Real;
        let n2 = nf * nf;
        TwoLevelCosts {
            flops: f * n2 / self.p() as Real,
            words_node: n2 / (self.nodes as Real * self.mem_node),
            words_local: n2 / (self.p() as Real * self.mem_local),
            traffic: NodeTraffic::PerCore,
        }
    }

    /// `(T, E)` for 2.5D matmul (two-level analogue of Eqs. 9/10, with
    /// the Eq. 12 runtime).
    pub fn matmul_point(&self, n: u64) -> (Real, Real) {
        let c = self.matmul_costs(n);
        let t = self.time(&c);
        (t, self.energy(&c, t))
    }

    /// `(T, E)` for the n-body algorithm (paper Eq. 17).
    pub fn nbody_point(&self, n: u64, f: Real) -> (Real, Real) {
        let c = self.nbody_costs(n, f);
        let t = self.time(&c);
        (t, self.energy(&c, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;

    fn params() -> TwoLevelParams {
        TwoLevelParams {
            nodes: 16,
            cores_per_node: 8,
            gamma_t: 2.5e-12,
            gamma_e: 3.8e-10,
            beta_n_t: 1.6e-10,
            beta_n_e: 3.8e-10,
            beta_l_t: 2.0e-11,
            beta_l_e: 5.0e-11,
            delta_n_e: 5.8e-9,
            delta_l_e: 1.0e-9,
            epsilon_e: 0.05,
            mem_node: 1e9,
            mem_local: 1e6,
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut p = params();
        p.nodes = 0;
        assert!(matches!(
            p.validate(),
            Err(CoreError::InvalidConfiguration(_))
        ));
        let mut p = params();
        p.mem_local = 0.0;
        assert!(matches!(
            p.validate(),
            Err(CoreError::InvalidParameter { .. })
        ));
        let mut p = params();
        p.beta_n_e = -1.0;
        assert!(matches!(
            p.validate(),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(params().validate().is_ok());
    }

    /// The printed Eq. 17: term-by-term closed form, compared against the
    /// generic two-level evaluation.
    #[test]
    fn eq17_term_by_term_matches_generic() {
        let tl = params();
        let n = 1u64 << 22;
        let f = 20.0;
        let (t, e) = tl.nbody_point(n, f);

        let nf = n as Real;
        let n2 = nf * nf;
        let pl = tl.cores_per_node as Real;
        let (bnt, bne, blt, ble) = (tl.beta_n_t, tl.beta_n_e, tl.beta_l_t, tl.beta_l_e);
        let (dn, dl, eps, gt, ge) = (
            tl.delta_n_e,
            tl.delta_l_e,
            tl.epsilon_e,
            tl.gamma_t,
            tl.gamma_e,
        );
        let (mn, ml) = (tl.mem_node, tl.mem_local);
        let pn = tl.nodes as Real;
        let p = pn * pl;

        // T = f·n²·γt/p + βnt·n²/(Mn·pn) + βlt·n²/(Ml·p)   (Eq. 17)
        let t_closed = f * n2 * gt / p + bnt * n2 / (mn * pn) + blt * n2 / (ml * p);
        assert!((t - t_closed).abs() / t_closed < 1e-12);

        // E = n²[ (f·γe + f·γt·εe + δne·βnt + δle·βlt)
        //       + (pl·βne + εe·pl·βnt)/Mn
        //       + (βle + εe·βlt)/Ml
        //       + δne·f·γt·Mn/pl + δle·f·γt·Ml
        //       + δne·βlt·Mn/(pl·Ml) + δle·βnt·pl·Ml/Mn ]   (Eq. 17)
        let e_closed = n2
            * ((f * ge + f * gt * eps + dn * bnt + dl * blt)
                + (pl * bne + eps * pl * bnt) / mn
                + (ble + eps * blt) / ml
                + dn * f * gt * mn / pl
                + dl * f * gt * ml
                + dn * blt * mn / (pl * ml)
                + dl * bnt * pl * ml / mn);
        assert!(
            (e - e_closed).abs() / e_closed < 1e-12,
            "generic {e} vs closed {e_closed}"
        );
    }

    #[test]
    fn two_level_nbody_energy_is_independent_of_node_count() {
        // The two-level analogue of perfect strong scaling: with Mn and
        // Ml fixed, the per-node/per-core work all scales as 1/pn while
        // node and core counts multiply it back.
        let mut tl = params();
        let n = 1u64 << 22;
        let f = 20.0;
        let (_, e1) = tl.nbody_point(n, f);
        tl.nodes *= 4;
        let (t4, e4) = tl.nbody_point(n, f);
        let (t1, _) = params().nbody_point(n, f);
        assert!((e4 - e1).abs() / e1 < 1e-12);
        assert!((t4 * 4.0 - t1).abs() / t1 < 1e-12);
    }

    #[test]
    fn matmul_reduces_to_single_level_when_degenerate() {
        // One core per node, free local traffic and no local memory cost:
        // the two-level matmul model must agree with Eqs. 9/10 at
        // M = Mn, m = ∞ (latency elided).
        let tl = TwoLevelParams {
            nodes: 64,
            cores_per_node: 1,
            gamma_t: 2.5e-12,
            gamma_e: 3.8e-10,
            beta_n_t: 1.6e-10,
            beta_n_e: 3.8e-10,
            beta_l_t: 0.0,
            beta_l_e: 0.0,
            delta_n_e: 5.8e-9,
            delta_l_e: 0.0,
            epsilon_e: 0.05,
            mem_node: 1e9,
            mem_local: 1.0,
        };
        let single = MachineParams::builder()
            .gamma_t(tl.gamma_t)
            .beta_t(tl.beta_n_t)
            .gamma_e(tl.gamma_e)
            .beta_e(tl.beta_n_e)
            .delta_e(tl.delta_n_e)
            .epsilon_e(tl.epsilon_e)
            .max_message_words(Real::INFINITY)
            .build();
        // max_message_words = ∞ is rejected? No: it is finite-positive
        // required; use a huge value instead.
        let single = match single {
            Ok(s) => s,
            Err(_) => MachineParams::builder()
                .gamma_t(tl.gamma_t)
                .beta_t(tl.beta_n_t)
                .gamma_e(tl.gamma_e)
                .beta_e(tl.beta_n_e)
                .delta_e(tl.delta_n_e)
                .epsilon_e(tl.epsilon_e)
                .max_message_words(1e30)
                .build()
                .unwrap(),
        };
        let n = 4096u64;
        let (t2, e2) = tl.matmul_point(n);
        let t1 = crate::time::t_matmul_25d(&single, n, 64, 1e9);
        let e1 = crate::energy::e_matmul_25d(&single, n, 1e9);
        assert!((t2 - t1).abs() / t1 < 1e-9, "t2={t2} t1={t1}");
        assert!((e2 - e1).abs() / e1 < 1e-9, "e2={e2} e1={e1}");
    }

    #[test]
    fn nbody_reduces_to_single_level_when_degenerate() {
        let tl = TwoLevelParams {
            nodes: 256,
            cores_per_node: 1,
            gamma_t: 2.5e-12,
            gamma_e: 3.8e-10,
            beta_n_t: 1.6e-10,
            beta_n_e: 3.8e-10,
            beta_l_t: 0.0,
            beta_l_e: 0.0,
            delta_n_e: 5.8e-9,
            delta_l_e: 0.0,
            epsilon_e: 0.05,
            mem_node: 1e6,
            mem_local: 1.0,
        };
        let single = MachineParams::builder()
            .gamma_t(tl.gamma_t)
            .beta_t(tl.beta_n_t)
            .gamma_e(tl.gamma_e)
            .beta_e(tl.beta_n_e)
            .delta_e(tl.delta_n_e)
            .epsilon_e(tl.epsilon_e)
            .max_message_words(1e30)
            .build()
            .unwrap();
        let n = 1u64 << 20;
        let f = 20.0;
        let (t2, e2) = tl.nbody_point(n, f);
        let t1 = crate::time::t_nbody(&single, n, 256, 1e6, f);
        let e1 = crate::energy::e_nbody(&single, n, 1e6, f);
        assert!((t2 - t1).abs() / t1 < 1e-9);
        assert!((e2 - e1).abs() / e1 < 1e-9);
    }

    #[test]
    fn faster_local_network_reduces_time_not_node_energy_terms() {
        let mut tl = params();
        let n = 4096u64;
        let (t_slow, _) = tl.matmul_point(n);
        tl.beta_l_t /= 10.0;
        let (t_fast, _) = tl.matmul_point(n);
        assert!(t_fast < t_slow);
    }

    #[test]
    fn p_is_product_of_levels() {
        assert_eq!(params().p(), 128);
    }
}
