//! `dqs bench c10k` end to end against an in-process mediator: what it
//! prints, what it writes, and when it fails.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dqs_exec::json;
use dqs_mediator::{MediatorServer, ServeOpts};

/// A fresh, empty working directory for the child process.
fn empty_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench_c10k(mediator: &MediatorServer, cwd: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dqs"))
        .current_dir(cwd)
        .args(["bench", "c10k", "--connect"])
        .arg(mediator.local_addr().to_string())
        .args(["--sessions", "5", "--timeout-secs", "60"])
        .args(extra)
        .output()
        .expect("run dqs")
}

/// The stdout lines that are JSON objects — the report line.
fn report_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect()
}

#[test]
fn prints_one_replay_report_line_and_writes_a_file_only_when_asked() {
    let mediator = MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let cwd = empty_dir("bench_c10k_no_out");

    let out = bench_c10k(&mediator, &cwd, &[]);
    assert!(out.status.success(), "{out:?}");
    let lines = report_lines(&out);
    assert_eq!(lines.len(), 1, "{out:?}");
    let report = json::parse(&lines[0]).expect("the report line is JSON");
    // The one `ReplayReport` shape, as `dqs workload replay` prints it.
    for key in [
        "sessions",
        "completed",
        "errored",
        "rejected",
        "queued_sessions",
        "peak_concurrent",
        "duration_secs",
        "throughput_per_sec",
        "total",
        "queue_wait",
        "exec",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
    ] {
        assert!(
            report.get(key).is_some(),
            "report lacks {key}: {}",
            lines[0]
        );
    }
    let count = |key: &str| report.get(key).and_then(|v| v.as_u64());
    assert_eq!(count("sessions"), Some(5));
    assert_eq!(count("completed"), Some(5));
    assert_eq!(count("errored"), Some(0));
    assert_eq!(count("rejected"), Some(0));
    let left_behind: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left_behind.is_empty(), "no --out, no file: {left_behind:?}");

    let out = bench_c10k(&mediator, &cwd, &["--out", "report.json"]);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(cwd.join("report.json")).expect("--out writes the file");
    assert_eq!(vec![written.trim_end().to_string()], report_lines(&out));
    mediator.shutdown();
}

#[test]
fn a_rejected_session_fails_the_run() {
    // One slot and no backlog: of five sessions due at once, some are
    // refused — none errored, but a flood is judged on all completing.
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 1,
            backlog: 0,
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let out = bench_c10k(&mediator, &empty_dir("bench_c10k_rejected"), &[]);
    assert!(!out.status.success(), "{out:?}");
    let lines = report_lines(&out);
    assert_eq!(lines.len(), 1, "{out:?}");
    let report = json::parse(&lines[0]).expect("the report line is JSON");
    assert!(report.get("rejected").and_then(|v| v.as_u64()) > Some(0));
    assert_eq!(report.get("errored").and_then(|v| v.as_u64()), Some(0));
    mediator.shutdown();
}
