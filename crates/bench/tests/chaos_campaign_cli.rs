//! The `chaos_campaign` command line: `--help` prints the flag list, and an
//! unknown argument, a count that does not parse, an unknown mechanism or
//! an unknown shape is a usage error (exit 2) rather than a silently run
//! default campaign.

use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos_campaign"))
        .args(args)
        .output()
        .expect("run chaos_campaign")
}

#[test]
fn help_prints_the_flags_and_bad_arguments_exit_2() {
    let help = campaign(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8(help.stdout).expect("utf-8 usage");
    for flag in ["--coverage", "--seeds N", "--budget N", "--channels N", "--fault-plan FILE"] {
        assert!(text.contains(flag), "--help does not list {flag}:\n{text}");
    }
    for args in [
        &["--seed", "8"][..],
        &["--seeds", "x"],
        &["--seeds=x"],
        &["--budget", "x"],
        &["--coverage", "--channels", "x"],
        &["--threads", "x"],
        &["--mechanism", "bogus"],
        &["--shape", "bogus"],
        &["--out"],
        &["stray"],
    ] {
        let out = campaign(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error:\n{err}");
        assert!(err.contains("usage: chaos_campaign"), "{args:?} printed no usage:\n{err}");
        assert!(out.stdout.is_empty(), "{args:?} ran a campaign");
    }
}
