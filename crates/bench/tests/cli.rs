//! The `experiments` command line rejects malformed arguments before it
//! simulates anything: each case exits with status 2 and prints its error
//! followed by the usage on stderr.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_with_usage() {
    let cases: [(&[&str], &str); 6] = [
        (&["table9"], r#"unknown arguments ["table9"]"#),
        (
            &["--profile", "x"],
            r#"unknown arguments ["--profile", "x"]"#,
        ),
        (
            &["--jobs", "0"],
            r#"--jobs must be a positive integer, got "0""#,
        ),
        (
            &["--faults", "5..5"],
            r#"--faults takes an integer seed or an a..b range (a < b), got "5..5""#,
        ),
        (
            &["--failover", "abc"],
            r#"--failover seed must be an integer, got "abc""#,
        ),
        (&["all", "--json"], "--json requires a path"),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.starts_with(&format!("{message}\nusage: experiments [")),
            "{args:?}: stderr {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
