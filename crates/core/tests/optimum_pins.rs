//! Bit pins for the §V answers of the direct n-body model and for the
//! CAPS energy optimum: every public closed form, at the bits, with each
//! refusal's text. The CLI prints five digits, so only a digest of the
//! bits catches a drift of one ulp; a mismatch prints the new digest.

use std::fmt::Display;

use psse_core::costs::{Algorithm, DirectNBody, StrassenMatMul};
use psse_core::error::CoreError;
use psse_core::machines::{jaketown, PRESETS};
use psse_core::optimize::{EnergyOptimum, RunConfig};
use psse_core::params::MachineParams;

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
struct Fnv(u64, usize);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325, 0)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// One answer: its bits, or the refusal's text. An infallible
    /// answer digests as its `Ok`.
    fn put<T: Bits, E: Display>(&mut self, r: Result<T, E>) {
        self.1 += 1;
        match r {
            Ok(v) => {
                self.bytes(b"ok");
                v.bits(self);
            }
            Err(e) => {
                self.bytes(b"err");
                self.bytes(e.to_string().as_bytes());
            }
        }
    }
}

trait Bits {
    fn bits(&self, h: &mut Fnv);
}

impl Bits for f64 {
    fn bits(&self, h: &mut Fnv) {
        h.bytes(&self.to_bits().to_le_bytes());
    }
}

impl Bits for RunConfig {
    fn bits(&self, h: &mut Fnv) {
        for x in [self.p, self.mem, self.time, self.energy] {
            x.bits(h);
        }
    }
}

impl Bits for (RunConfig, f64) {
    fn bits(&self, h: &mut Fnv) {
        self.0.bits(h);
        self.1.bits(h);
    }
}

impl Bits for EnergyOptimum {
    fn bits(&self, h: &mut Fnv) {
        for x in [self.m0, self.e_star, self.p_lo, self.p_hi] {
            x.bits(h);
        }
    }
}

const NS: [u64; 5] = [2, 64, 30_000, 100_000, 1 << 22];
const FS: [f64; 2] = [20.0, 10.0];

/// The machines: the four presets, one `validate` refuses, and one with
/// no memory energy (`δe = 0`, so `M0` is undefined but the rest answer).
fn machines() -> Vec<MachineParams> {
    let mut ms: Vec<MachineParams> = PRESETS.iter().map(|(_, m)| m()).collect();
    ms.push(MachineParams {
        beta_e: -1.0,
        ..jaketown()
    });
    ms.push(MachineParams {
        delta_e: 0.0,
        ..jaketown()
    });
    ms
}

/// Every §V answer of the direct n-body model on `machine` at `f`:
/// `M0`, `E*` and its band, the deadline threshold, the deadline and
/// budget optima on both sides of their thresholds (and past the 2-D
/// boundary's end), the power caps (feasible and not), §V.F's
/// efficiency answers, the minimum-power run and explicit prices.
fn nbody_answers(h: &mut Fnv, machine: &MachineParams, f: f64) {
    let nbody = DirectNBody {
        flops_per_interaction: f,
    };
    h.put(nbody.m0(machine));
    let threshold = nbody.tmax_threshold(machine);
    h.put(threshold.clone());
    let threshold = threshold.unwrap_or(1.0);
    h.put(nbody.flops_per_joule_at_optimum(machine));
    h.put(nbody.gflops_per_watt_at_optimum(machine));
    for target in [1.0, 10.0, 75.0, 0.0] {
        h.put(nbody.energy_improvement_for_target(machine, target));
    }
    for p_max in [1e-12, 1.0, 50.0, 1e3, 1e9] {
        h.put(nbody.max_memory_given_proc_power(machine, p_max));
    }
    for mem in [1.0, 4096.0, 1e6] {
        for p in [1.0, 100.0, 1e4] {
            h.put(nbody.average_power(machine, p, mem));
        }
        for cap in [1e-3, 1e4, 1e8] {
            h.put(nbody.max_p_given_total_power(machine, cap, mem));
        }
    }
    for n in NS {
        let optimum = nbody.energy_optimum(machine, n);
        h.put(optimum.clone());
        let e_star = optimum.map_or(1.0, |o| o.e_star);
        let nf = n as f64;
        for p in [1, 100, n.saturating_mul(n)] {
            h.put(nbody.evaluate(machine, n, p, nf / (p as f64).sqrt()));
            h.put(nbody.evaluate(machine, n, p, 4096.0));
        }
        let deadlines = [10.0, 1.0, 0.999, 0.5, 1e-3].map(|k| k * threshold);
        for tmax in
            deadlines
                .into_iter()
                .chain([1.0, -1.0, 0.0, f64::NAN, f64::INFINITY, 5e-324, 1e-300])
        {
            h.put(nbody.min_energy_given_tmax(machine, n, tmax));
        }
        let budgets = [0.99, 1.0, 1.5, 1e3, 1e12].map(|k| k * e_star);
        for emax in budgets
            .into_iter()
            .chain([1e5, -1.0, f64::NAN, f64::INFINITY])
        {
            h.put(nbody.min_time_given_emax(machine, n, emax));
        }
        h.put(nbody.min_average_power(machine, n));
    }
}

#[test]
fn nbody_section_v_answers_are_pinned() {
    let mut h = Fnv::new();
    for machine in &machines() {
        for f in FS.into_iter().chain([0.0, -1.0, f64::NAN, f64::INFINITY]) {
            nbody_answers(&mut h, machine, f);
        }
    }
    assert_eq!(h.1, 6 * 6 * (31 + 5 * 29));
    assert_eq!(
        h.0, 0x0edd_1363_bd12_4f81,
        "n-body §V answers moved: new digest {:#018x}",
        h.0
    );
}

/// `StrassenMatMul::default().energy_optimum` on each preset at every
/// `n` of `NS` (the CAPS row is left out of the CLI's optimum pin).
#[test]
fn caps_energy_optima_are_pinned() {
    let mut h = Fnv::new();
    for (_, machine) in PRESETS {
        for n in NS {
            let r: Result<EnergyOptimum, CoreError> =
                StrassenMatMul::default().energy_optimum(&machine(), n);
            h.put(r);
        }
    }
    assert_eq!(h.1, 20);
    assert_eq!(
        h.0, 0xa4fb_c348_6802_ce29,
        "CAPS optima moved: new digest {:#018x}",
        h.0
    );
}
