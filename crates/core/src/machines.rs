//! Machine database: the §VI case-study machine (paper Table I) and the
//! processor comparison set (paper Table II).

use crate::params::MachineParams;
use crate::Real;

/// The dual-socket Intel Sandy Bridge ("Jaketown") server of paper §VI,
/// with the exact Table I parameter values. In the case study each
/// *socket* is one "processor" of the model (`p = 2`).
///
/// Derivation notes from the paper, §VI:
/// * `γe` = peak single-precision flops ÷ die TDP (worst case);
/// * `γt` = 1 / peak single-precision flops;
/// * `εe = 0` and `αe = 0` are acknowledged simplifications;
/// * `βe` = (time per word) × link active power;
/// * `m = M` (whole memory may be one message).
pub fn jaketown() -> MachineParams {
    MachineParams::builder()
        .gamma_t(2.5202e-12)
        .beta_t(1.56e-10)
        .alpha_t(6.00e-8)
        .gamma_e(3.78024e-10)
        .beta_e(3.78024e-10)
        .alpha_e(0.0)
        .delta_e(5.7742e-9)
        .epsilon_e(0.0)
        .max_message_words(17_179_869_184.0)
        .mem_words(17_179_869_184.0)
        .build()
        .expect("Table I parameters are valid")
}

/// Raw specification of one processor row of paper Table II, from which
/// `γt`, `γe` and GFLOPS/W are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Marketing name, as printed in Table II.
    pub name: &'static str,
    /// Core clock, GHz.
    pub freq_ghz: Real,
    /// Physical core count.
    pub cores: u32,
    /// Single-precision SIMD lane count per core.
    pub simd_width: u32,
    /// Single-precision flops per SIMD lane per cycle (2 where a fused or
    /// dual-issue multiply-add exists, 1 otherwise).
    pub flops_per_lane_cycle: Real,
    /// Thermal design power of the package, watts.
    pub tdp_w: Real,
    /// Optional on-package GPU contribution `(freq GHz, execution units,
    /// lanes, flops/lane/cycle)` — the parenthesized figures of the Ivy
    /// Bridge rows in Table II.
    pub gpu: Option<(Real, u32, u32, Real)>,
}

impl MachineSpec {
    /// Peak single-precision GFLOP/s (CPU + integrated GPU if present).
    pub fn peak_gflops(&self) -> Real {
        let cpu = self.freq_ghz
            * self.cores as Real
            * self.simd_width as Real
            * self.flops_per_lane_cycle;
        let gpu = self
            .gpu
            .map(|(f, eu, lanes, fpc)| f * eu as Real * lanes as Real * fpc)
            .unwrap_or(0.0);
        cpu + gpu
    }

    /// `γt` in seconds per flop: the reciprocal of peak throughput.
    pub fn gamma_t(&self) -> Real {
        1.0 / (self.peak_gflops() * 1e9)
    }

    /// `γe` in joules per flop: TDP divided by peak throughput (the
    /// paper's deliberately pessimistic choice).
    pub fn gamma_e(&self) -> Real {
        self.tdp_w / (self.peak_gflops() * 1e9)
    }

    /// Peak efficiency in GFLOPS per watt.
    pub fn gflops_per_watt(&self) -> Real {
        self.peak_gflops() / self.tdp_w
    }
}

/// Interconnect description for deriving link prices the way §VI does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: Real,
    /// Link latency in seconds per message.
    pub latency_s: Real,
    /// Active link power in watts (energy per word = `βt · P_active`).
    pub active_power_w: Real,
    /// Word size in bytes (4 for the paper's single-precision words).
    pub word_bytes: Real,
}

/// Memory description for deriving `δe` the way §VI does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSpec {
    /// Total DRAM power kept on during the run, watts.
    pub power_w: Real,
    /// Capacity in words.
    pub capacity_words: Real,
}

impl MachineSpec {
    /// Build full machine-model parameters from this processor plus an
    /// interconnect and memory description, following the §VI
    /// derivations: `γt = 1/peak`, `γe = TDP/peak`,
    /// `βt = word_bytes/bandwidth`, `βe = βt·P_link`, `αt = latency`,
    /// `δe = P_dram/capacity`.
    pub fn to_machine_params(&self, link: LinkSpec, dram: DramSpec) -> MachineParams {
        let beta_t = link.word_bytes / link.bandwidth_bytes_per_s;
        MachineParams::builder()
            .gamma_t(self.gamma_t())
            .beta_t(beta_t)
            .alpha_t(link.latency_s)
            .gamma_e(self.gamma_e())
            .beta_e(beta_t * link.active_power_w)
            .alpha_e(0.0)
            .delta_e(dram.power_w / dram.capacity_words)
            .epsilon_e(0.0)
            .max_message_words(dram.capacity_words)
            .mem_words(dram.capacity_words)
            .build()
            .expect("spec-derived parameters are valid")
    }
}

/// An embedded SoC environment (§VII: "embedded"): slow cores, tiny
/// memory, on-chip network — low latency, modest bandwidth. Parameters
/// follow the ARM Cortex A9 row of Table II with a NoC-class link.
pub fn embedded_soc() -> MachineParams {
    let arm = &table2()[10]; // Cortex A9 @ 0.8 GHz
    arm.to_machine_params(
        LinkSpec {
            bandwidth_bytes_per_s: 4e9,
            latency_s: 1e-7,
            active_power_w: 0.1,
            word_bytes: 4.0,
        },
        DramSpec {
            power_w: 0.2,
            capacity_words: 128e6,
        },
    )
}

/// A cluster node environment (§VII: "cluster"): the Table I server with
/// an InfiniBand-class network.
pub fn cluster_node() -> MachineParams {
    let sb = &table2()[0];
    sb.to_machine_params(
        LinkSpec {
            bandwidth_bytes_per_s: 25.6e9,
            latency_s: 6e-8,
            active_power_w: 2.15,
            word_bytes: 4.0,
        },
        DramSpec {
            power_w: 99.2,
            capacity_words: 17_179_869_184.0,
        },
    )
}

/// A cloud environment (§VII: "cloud"): same silicon as the cluster but
/// behind a virtualized Ethernet fabric — an order of magnitude less
/// bandwidth and three orders more latency, which is exactly what makes
/// 2.5D LU's non-scaling latency term bite.
pub fn cloud_instance() -> MachineParams {
    let sb = &table2()[0];
    sb.to_machine_params(
        LinkSpec {
            bandwidth_bytes_per_s: 1.25e9, // 10 GbE
            latency_s: 5e-5,               // virtualized stack
            active_power_w: 5.0,
            word_bytes: 4.0,
        },
        DramSpec {
            power_w: 99.2,
            capacity_words: 17_179_869_184.0,
        },
    )
}

/// A machine a run can name, and how to build it.
pub type Preset = (&'static str, fn() -> MachineParams);

/// The machines a run can name (`--machine cloud-instance`, `machine =
/// cloud-instance`), the default first.
pub const PRESETS: [Preset; 4] = [
    ("jaketown", jaketown),
    ("embedded-soc", embedded_soc),
    ("cluster-node", cluster_node),
    ("cloud-instance", cloud_instance),
];

/// The eleven processors of paper Table II, with their published
/// specification inputs. Derived columns (`γt`, `γe`, GFLOPS/W) are
/// computed by [`MachineSpec`] methods and verified against the paper's
/// printed values in this module's tests.
pub fn table2() -> Vec<MachineSpec> {
    vec![
        MachineSpec {
            name: "Intel Sandy Bridge 2687W",
            freq_ghz: 3.1,
            cores: 8,
            simd_width: 8,
            flops_per_lane_cycle: 2.0,
            tdp_w: 150.0,
            gpu: None,
        },
        MachineSpec {
            name: "Intel Ivy Bridge 3770K",
            freq_ghz: 3.5,
            cores: 4,
            simd_width: 8,
            flops_per_lane_cycle: 2.0,
            tdp_w: 77.0,
            gpu: Some((0.65, 16, 8, 1.0)),
        },
        MachineSpec {
            name: "Intel Ivy Bridge 3770T",
            freq_ghz: 2.5,
            cores: 4,
            simd_width: 8,
            flops_per_lane_cycle: 2.0,
            tdp_w: 45.0,
            gpu: Some((0.65, 16, 8, 1.0)),
        },
        MachineSpec {
            name: "Intel Westmere-EX E7-8870",
            freq_ghz: 2.4,
            cores: 10,
            simd_width: 4,
            flops_per_lane_cycle: 2.0,
            tdp_w: 130.0,
            gpu: None,
        },
        MachineSpec {
            name: "Intel Beckton X7560",
            freq_ghz: 2.26,
            cores: 8,
            simd_width: 4,
            flops_per_lane_cycle: 2.0,
            tdp_w: 130.0,
            gpu: None,
        },
        MachineSpec {
            name: "Intel Atom D2500",
            freq_ghz: 1.86,
            cores: 2,
            simd_width: 4,
            flops_per_lane_cycle: 2.0,
            tdp_w: 10.0,
            gpu: None,
        },
        MachineSpec {
            name: "Intel Atom N2800",
            freq_ghz: 1.86,
            cores: 2,
            simd_width: 4,
            flops_per_lane_cycle: 2.0,
            tdp_w: 6.5,
            gpu: None,
        },
        MachineSpec {
            name: "Nvidia GTX480",
            freq_ghz: 1.401,
            cores: 480,
            simd_width: 1,
            flops_per_lane_cycle: 2.0,
            tdp_w: 250.0,
            gpu: None,
        },
        MachineSpec {
            name: "Nvidia GTX590",
            freq_ghz: 1.215,
            cores: 1024,
            simd_width: 1,
            flops_per_lane_cycle: 2.0,
            tdp_w: 365.0,
            gpu: None,
        },
        MachineSpec {
            name: "ARM Cortex A9 (2 GHz)",
            freq_ghz: 2.0,
            cores: 2,
            simd_width: 2,
            flops_per_lane_cycle: 1.0,
            tdp_w: 1.9,
            gpu: None,
        },
        MachineSpec {
            name: "ARM Cortex A9 (0.8 GHz)",
            freq_ghz: 0.8,
            cores: 2,
            simd_width: 2,
            flops_per_lane_cycle: 1.0,
            tdp_w: 0.5,
            gpu: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table II, printed derived columns:
    /// (name, peak GFLOP/s, γt, γe, GFLOPS/W).
    const PAPER_ROWS: [(&str, Real, Real, Real, Real); 11] = [
        (
            "Intel Sandy Bridge 2687W",
            396.80,
            2.52e-12,
            3.78e-10,
            2.645,
        ),
        ("Intel Ivy Bridge 3770K", 307.20, 3.26e-12, 2.51e-10, 3.990),
        ("Intel Ivy Bridge 3770T", 243.20, 4.11e-12, 1.85e-10, 5.404),
        (
            "Intel Westmere-EX E7-8870",
            192.00,
            5.21e-12,
            6.77e-10,
            1.477,
        ),
        ("Intel Beckton X7560", 144.64, 6.91e-12, 8.99e-10, 1.113),
        ("Intel Atom D2500", 29.76, 3.36e-11, 3.36e-10, 2.976),
        ("Intel Atom N2800", 29.76, 3.36e-11, 2.18e-10, 4.578),
        ("Nvidia GTX480", 1344.96, 7.44e-13, 1.86e-10, 5.380),
        ("Nvidia GTX590", 2488.32, 4.02e-13, 1.47e-10, 6.817),
        ("ARM Cortex A9 (2 GHz)", 8.00, 1.25e-10, 2.38e-10, 4.211),
        ("ARM Cortex A9 (0.8 GHz)", 3.20, 3.13e-10, 1.56e-10, 6.400),
    ];

    fn close(a: Real, b: Real, rel: Real) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn table2_has_eleven_rows() {
        assert_eq!(table2().len(), 11);
    }

    #[test]
    fn derived_columns_match_paper_within_rounding() {
        let specs = table2();
        for (spec, row) in specs.iter().zip(PAPER_ROWS.iter()) {
            assert_eq!(spec.name, row.0);
            assert!(
                close(spec.peak_gflops(), row.1, 1e-3),
                "{}: peak {} vs paper {}",
                spec.name,
                spec.peak_gflops(),
                row.1
            );
            assert!(
                close(spec.gamma_t(), row.2, 5e-3),
                "{}: gamma_t {} vs paper {}",
                spec.name,
                spec.gamma_t(),
                row.2
            );
            assert!(
                close(spec.gamma_e(), row.3, 5e-3),
                "{}: gamma_e {} vs paper {}",
                spec.name,
                spec.gamma_e(),
                row.3
            );
            assert!(
                close(spec.gflops_per_watt(), row.4, 1e-3),
                "{}: eff {} vs paper {}",
                spec.name,
                spec.gflops_per_watt(),
                row.4
            );
        }
    }

    #[test]
    fn no_table2_machine_reaches_10_gflops_per_watt() {
        // Paper §VII: "none are able to approach even 10 GFLOPS/W."
        for spec in table2() {
            assert!(spec.gflops_per_watt() < 10.0, "{}", spec.name);
        }
    }

    #[test]
    fn efficiency_poles_are_gpus_and_low_power_parts() {
        // Paper §VII: the two poles are high-power GPUs and low-power
        // slow processors. The top-3 by efficiency should contain the
        // GTX590 and the 0.8 GHz Cortex A9.
        let mut specs = table2();
        specs.sort_by(|a, b| {
            b.gflops_per_watt()
                .partial_cmp(&a.gflops_per_watt())
                .unwrap()
        });
        let top: Vec<&str> = specs.iter().take(3).map(|s| s.name).collect();
        assert!(top.contains(&"Nvidia GTX590"));
        assert!(top.contains(&"ARM Cortex A9 (0.8 GHz)"));
    }

    #[test]
    fn jaketown_matches_table1() {
        let j = jaketown();
        assert_eq!(j.gamma_t, 2.5202e-12);
        assert_eq!(j.beta_t, 1.56e-10);
        assert_eq!(j.alpha_t, 6.00e-8);
        assert_eq!(j.gamma_e, 3.78024e-10);
        assert_eq!(j.beta_e, 3.78024e-10);
        assert_eq!(j.alpha_e, 0.0);
        assert_eq!(j.delta_e, 5.7742e-9);
        assert_eq!(j.epsilon_e, 0.0);
        assert_eq!(j.max_message_words, 17_179_869_184.0);
        assert_eq!(j.mem_words, 17_179_869_184.0);
    }

    #[test]
    fn jaketown_gamma_matches_sandy_bridge_spec() {
        // Table I's γt/γe are the Table II Sandy Bridge derivations.
        let j = jaketown();
        let sb = &table2()[0];
        assert!(close(j.gamma_t, sb.gamma_t(), 1e-4));
        assert!(close(j.gamma_e, sb.gamma_e(), 1e-4));
    }

    #[test]
    fn spec_derivation_reproduces_table1() {
        // Building the Sandy Bridge + QPI + DRAM machine from specs must
        // land on the Table I values (up to the paper's rounding).
        let derived = cluster_node();
        let printed = jaketown();
        assert!(close(derived.gamma_t, printed.gamma_t, 1e-3));
        assert!(close(derived.gamma_e, printed.gamma_e, 1e-3));
        assert!(close(derived.beta_t, printed.beta_t, 5e-3));
        assert!(close(derived.delta_e, printed.delta_e, 5e-3));
        assert!(close(derived.alpha_t, printed.alpha_t, 1e-9));
    }

    #[test]
    fn environment_presets_are_ordered_sensibly() {
        let emb = embedded_soc();
        let clu = cluster_node();
        let clo = cloud_instance();
        // Embedded: slowest compute; cloud: worst latency and bandwidth.
        assert!(emb.gamma_t > clu.gamma_t);
        assert!(clo.alpha_t > 100.0 * clu.alpha_t);
        assert!(clo.beta_t > clu.beta_t);
        // All validate.
        for m in [emb, clu, clo] {
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn cloud_latency_hurts_lu_more_than_matmul() {
        // §VII open problem, quantified: moving from cluster to cloud at
        // the same (n, p, M) inflates LU's runtime by a larger factor
        // than matmul's, because LU's S = p·√M/n term is latency-bound.
        use crate::costs::{Algorithm, ClassicalMatMul, Lu25d};
        let n = 1u64 << 14;
        let p = 1u64 << 10;
        let m = ClassicalMatMul.min_memory(n, p) * 2.0;
        let t = |mp: &MachineParams, alg: &dyn Algorithm| {
            let c = alg.costs(n, p, m, mp).unwrap();
            mp.time(&c)
        };
        let clu = cluster_node();
        let clo = cloud_instance();
        let mm_slowdown = t(&clo, &ClassicalMatMul) / t(&clu, &ClassicalMatMul);
        let lu_slowdown = t(&clo, &Lu25d) / t(&clu, &Lu25d);
        assert!(
            lu_slowdown > mm_slowdown,
            "LU should suffer more from cloud latency: lu {lu_slowdown} vs mm {mm_slowdown}"
        );
    }

    #[test]
    fn jaketown_beta_t_matches_qpi_bandwidth() {
        // βt = 4 bytes/word ÷ 25.6 GB/s = 1.5625e-10 s (Table I rounds to
        // 1.56e-10).
        let derived = 4.0 / 25.6e9;
        assert!(close(jaketown().beta_t, derived, 2e-3));
    }
}
