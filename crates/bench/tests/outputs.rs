//! Pins what the measurement harnesses print: each quick entry point's
//! `Experiment::to_json()` is hashed and compared against the value the
//! harness produced when this file was written. A refactor of the harness
//! plumbing (world setup, channel open, epoch loop) must leave every
//! digest here unchanged; a deliberate change to a measured number
//! re-pins the affected line.

use parcomm_bench::{
    ablations, fig03, fig0405, fig0607, fig0809, fig1011, mechanisms, pbench, striping, table1,
    Experiment,
};
use parcomm_testkit::digest::Digest;

fn digest(exp: &Experiment) -> u64 {
    Digest::new().write_str(&exp.to_json()).finish()
}

fn check(name: &str, exp: Experiment, pinned: u64) {
    let got = digest(&exp);
    assert_eq!(
        got,
        pinned,
        "{name}: output digest 0x{got:016x} moved\n{}",
        exp.to_json()
    );
}

#[test]
fn figure_and_table_outputs_are_pinned() {
    check("fig03", fig03::run(true), 0x00ba_52c6_72ca_0c7b);
    check("fig04", fig0405::run_fig04(true), 0x114a_08be_0290_c488);
    check("fig05", fig0405::run_fig05(true), 0x2e13_76de_1cf2_99e2);
    check("fig06", fig0607::run_fig06(true), 0xbafe_1391_2740_f418);
    check("fig08", fig0809::run_fig08(true), 0x2e29_903a_5b4c_a427);
    check("fig10", fig1011::run_fig10(true), 0xc084_7e29_3816_578f);
    check("table1", table1::run(true), 0x924e_49bb_276e_d69d);
}

#[test]
fn pbench_outputs_are_pinned() {
    check(
        "pbench_latency",
        pbench::run_latency(true),
        0x77dc_f467_8cdf_4221,
    );
    check(
        "pbench_partitions",
        pbench::run_partition_overhead(true),
        0xe200_abea_611c_4e67,
    );
    check(
        "pbench_overlap",
        pbench::run_overlap(true),
        0xccee_b764_4187_8fbb,
    );
}

#[test]
fn mechanism_and_ablation_outputs_are_pinned() {
    check("mechanisms", mechanisms::run(true), 0xb832_6985_2e91_d082);
    check(
        "ablation_poll",
        ablations::run_poll_interval(true),
        0x21e8_4deb_83cd_4469,
    );
    check(
        "ablation_transport",
        ablations::run_transport_sweep(true),
        0xa8f5_b4c4_8be1_8a20,
    );
    check(
        "ablation_counters",
        ablations::run_counter_aggregation(true),
        0xaa7c_264e_c6f8_c99b,
    );
}

#[test]
fn striping_cells_are_pinned() {
    let pinned: [(usize, f64, u64); 3] = [
        (1, 34.777, 0x3bcf_6d7d_6f39_3b5a),
        (2, 35.583, 0x7ac8_04d5_33a6_76e0),
        (4, 36.829, 0xad11_b4be_5999_d017),
    ];
    for (stripes, us, run) in pinned {
        let got = striping::striped_p2p_cell(2, stripes, 64 * 1024);
        assert_eq!(got, (us, run), "stripes={stripes}: cell moved to {got:?}");
    }
}
