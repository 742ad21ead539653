//! The lab and the CLI run an algorithm through the same table entry,
//! so a sweep row is the run `psse simulate` would have measured: every
//! simulator is sweepable from a spec, and a shape the CLI rejects
//! fails its key instead of running on some other machine.

use psse_algos::prelude::{measure, sim_config_from};
use psse_algos::table::{self, Check, Shape};
use psse_core::machines::jaketown;
use psse_lab::prelude::*;

/// One small valid `(n, p, c)` per simulator. SUMMA's `c` is the panel
/// a spec row reads it as, chosen equal to the CLI's default `n/√p`.
const KEYS: [(&str, usize, usize, usize); 16] = [
    ("cannon", 16, 4, 1),
    ("summa", 16, 4, 8),
    ("summa-abft", 16, 4, 8),
    ("mm25d", 16, 8, 2),
    ("mm25d-abft", 16, 8, 2),
    ("mm3d", 8, 8, 1),
    ("strassen", 8, 7, 1),
    ("lu", 16, 4, 1),
    ("solve", 16, 4, 1),
    ("cholesky", 16, 4, 1),
    ("tsqr", 32, 4, 1),
    ("nbody", 24, 4, 2),
    ("fft", 64, 4, 1),
    ("matvec", 32, 4, 1),
    ("samplesort", 32, 4, 1),
    ("stencil", 16, 4, 1),
];

fn one_key(alg: &str, n: usize, p: usize, c: usize) -> Result<RunResult, String> {
    let spec = SweepSpec::parse(&format!(
        "kind = simulate\nalg = {alg}\nn = {n}\np = {p}\nc = {c}\nseed = 7\n"
    ))
    .unwrap_or_else(|e| panic!("{alg}: {e}"));
    let mut sweep = Lab::new(LabConfig::default()).run_spec(&spec);
    assert_eq!(sweep.results.len(), 1);
    sweep.results.remove(0)
}

#[test]
fn every_simulator_is_sweepable_and_its_row_is_what_the_cli_measures() {
    let in_table: Vec<&str> = table::names(|e| e.simulate.is_some()).collect();
    let covered: Vec<&str> = KEYS.iter().map(|k| k.0).collect();
    assert_eq!(in_table, covered, "KEYS must name every simulator");

    let machine = jaketown();
    for (alg, n, p, c) in KEYS {
        let row = one_key(alg, n, p, c).unwrap_or_else(|e| panic!("{alg}: {e}"));

        // What `psse simulate --alg .. --n .. --p .. --c .. --seed 7` does.
        let sim = table::simulator(alg).unwrap();
        let run = sim
            .run(&Shape::new(n, p, c, 7), sim_config_from(&machine), true)
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert!(run.verified, "{alg}: the CLI would report a mismatch");
        assert_eq!(row.output_digest, digest_f64s(&run.output), "{alg}");
        assert_eq!(row.verified, sim.check != Check::Tolerance, "{alg}");
        let profile = run.profile;
        let m = measure(&profile, &machine);
        assert_eq!(row.time.to_bits(), m.time.to_bits(), "{alg}: T");
        assert_eq!(row.energy.to_bits(), m.energy.to_bits(), "{alg}: E");
        assert_eq!(row.flops, profile.total_flops() as f64, "{alg}: F");
        assert_eq!(row.words, profile.total_words_sent() as f64, "{alg}: W");
        assert_eq!(row.msgs, profile.total_msgs_sent() as f64, "{alg}: S");
        assert_eq!(row.mem_used, profile.max_mem_peak() as f64, "{alg}: M");
    }
}

#[test]
fn a_shape_the_cli_rejects_fails_its_key() {
    // At the parent this ran `nbody_replicated(.., 10 / 3, 3)` on nine
    // ranks and wrote a `p = 10` row.
    let err = one_key("nbody", 60, 10, 3).unwrap_err();
    assert_eq!(
        err,
        "algorithm error: --c 3 must divide --p 10 for the replicated n-body layout"
    );
    // `c = 0` is no replication factor: the spec refuses it at its line.
    let err = SweepSpec::parse("kind = simulate\nalg = nbody\nn = 60\np = 4\nc = 0\n")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("(line 5): `c` must be a positive integer"),
        "{err}"
    );
    // The valid neighbours (the ledger's `c = 1, 2` at even `p`) run.
    for c in [1, 2] {
        one_key("nbody", 60, 4, c).unwrap();
    }
}

#[test]
fn an_unknown_alg_is_one_parse_error_with_its_line() {
    for (kind, alg) in [
        ("simulate", "nbdy"),
        ("simulate", "fft-a2a"),
        ("model", "cannon"),
    ] {
        let err = SweepSpec::parse(&format!(
            "kind = {kind}\nn = 64\nalg = {alg}\np = geom:1:1000:100\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains(&format!("algorithm `{alg}`")), "{err}");
        // The accepted names for that kind are listed.
        assert!(err.contains("|nbody|"), "{err}");
    }
    // `alg` before `kind` is checked against the kind all the same.
    assert!(SweepSpec::parse("alg = cannon\nkind = simulate\nn = 16\np = 4\n").is_ok());
    assert!(SweepSpec::parse("alg = cannon\nkind = model\nn = 16\np = 4\n").is_err());
}
