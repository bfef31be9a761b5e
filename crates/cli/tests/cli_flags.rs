//! `dqs` parses each flag once and refuses what it does not know: a bogus
//! flag or a flag missing its value exits 2 naming it, every flag `usage()`
//! spells is accepted by its sub-command, and every command line the docs
//! and CI show uses only flags that exist.
//!
//! "Accepted" is checked without serving anything: each command is aimed
//! at an address or path that makes it fail *after* its arguments were
//! parsed (an occupied port, a port nobody listens on, a missing file), so
//! anything but exit code 2 means the flags were taken.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SPEC: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/specs/quickstart.json"
);

fn dqs(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dqs"))
        .args(args)
        .output()
        .expect("run dqs")
}

fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// `--flag` tokens spelled anywhere in `text`.
fn flags_in(text: &str) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("--") {
        let name: String = rest[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '-')
            .collect();
        if name.starts_with(|c: char| c.is_ascii_lowercase()) {
            flags.insert(format!("--{name}"));
        }
        rest = &rest[at + 2 + name.len()..];
    }
    flags
}

/// Sub-command → the flags `usage()` spells for it, scraped from what a
/// bare `dqs` prints.
fn usage_flags() -> BTreeMap<String, BTreeSet<String>> {
    let out = dqs(&[]);
    assert_eq!(out.status.code(), Some(2), "bare `dqs` is a usage error");
    let text = String::from_utf8(out.stderr).unwrap();
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.lines().skip_while(|l| *l != "commands:").skip(1) {
        // A section starts at a two-space indent: "  name   description".
        match line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
            Some(head) => {
                let (name, body) = head.split_once("  ").expect("name, gap, description");
                sections.push((name.to_string(), body.to_string()));
            }
            None => sections.last_mut().expect("a section").1.push_str(line),
        }
    }
    let flags: BTreeMap<_, _> = sections
        .iter()
        .map(|(name, body)| (name.clone(), flags_in(body)))
        .collect();
    assert_eq!(
        flags.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "bench c10k",
            "explain",
            "invalidate",
            "lwb",
            "run",
            "serve",
            "submit",
            "validate",
            "workload gen",
            "workload replay",
            "wrapper"
        ]
    );
    flags
}

/// Addresses and paths that let every sub-command get past its arguments
/// and then fail (or finish) at once.
struct Fixture {
    /// Held open so binding it again fails with "address in use".
    _occupied: TcpListener,
    occupied: String,
    /// A loopback port nobody listens on: connecting is refused.
    closed: String,
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let occupied = TcpListener::bind("127.0.0.1:0").unwrap();
        let closed = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Fixture {
            occupied: occupied.local_addr().unwrap().to_string(),
            _occupied: occupied,
            closed: closed.to_string(),
            dir,
        }
    }

    fn file(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// The sub-command with just what it cannot do without.
    fn base(&self, cmd: &str) -> Vec<String> {
        let missing = self.file("missing");
        words(&match cmd {
            "explain" | "lwb" | "validate" | "run" => format!("{cmd} {SPEC}"),
            "wrapper" | "serve" => format!("{cmd} --listen {}", self.occupied),
            "submit" => format!("submit {missing} --connect {}", self.closed),
            "workload replay" => format!("workload replay {missing} --connect {}", self.closed),
            "invalidate" | "bench c10k" => format!("{cmd} --connect {}", self.closed),
            "workload gen" => format!("workload gen --out {}", self.file("trace.json")),
            other => panic!("no base invocation for {other}"),
        })
    }

    /// A value `flag` accepts, or `None` for a bare switch.
    fn value(&self, flag: &str) -> Option<String> {
        Some(match flag {
            "--all" | "--real-time" | "--trace" | "--no-cache" | "--json" => return None,
            "--strategy" => "seq".into(),
            "--admission" => "sjf".into(),
            "--arrival" => "bursty".into(),
            "--wrappers" => format!("w0={}", self.closed),
            "--wrapper" => "w0".into(),
            "--spec" => SPEC.into(),
            "--trace-json" => self.file("trace.jsonl"),
            "--out" => self.file("out.json"),
            "--zipf" => "1.1".into(),
            "--rate" => "100".into(),
            "--base-rate" => "5".into(),
            "--cache-mb" => "8".into(),
            "--memory-mb" => "64".into(),
            "--rel" => "0".into(),
            _ => "2".into(),
        })
    }
}

#[test]
fn every_flag_in_usage_is_accepted_by_its_sub_command() {
    let fx = Fixture::new("cli_flags_accepted");
    for (cmd, flags) in usage_flags() {
        let base = fx.base(&cmd);
        let mut args = base.clone();
        for flag in flags.iter().filter(|f| !base.contains(f)) {
            args.push(flag.clone());
            args.extend(fx.value(flag));
        }
        let out = dqs(&args);
        assert_ne!(
            out.status.code(),
            Some(2),
            "`dqs {}`: {out:?}",
            args.join(" ")
        );
    }
}

#[test]
fn a_bogus_flag_and_a_flag_missing_its_value_exit_2_naming_the_flag() {
    let fx = Fixture::new("cli_flags_refused");
    for (cmd, flags) in usage_flags() {
        let refused = |extra: &str| {
            let mut args = fx.base(&cmd);
            args.push(extra.to_string());
            let out = dqs(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "`dqs {cmd} .. {extra}`: {out:?}"
            );
            assert!(stderr.contains(extra), "`dqs {cmd} .. {extra}`: {stderr}");
        };
        refused("--no-such-flag");
        // `--seed` for the spec commands whose usage lists no flag.
        let valued = flags.iter().find(|f| fx.value(f).is_some());
        refused(valued.map_or("--seed", String::as_str));
    }
    // The three spellings that used to run with a default instead.
    for (line, named) in [
        (
            "serve --listen 127.0.0.1:0 --max-concurent 4",
            "--max-concurent",
        ),
        (&format!("run {SPEC} --trace"), "--trace"),
        (
            "serve --wrappers --backlog 8 --listen 127.0.0.1:0",
            "--wrappers",
        ),
    ] {
        let out = dqs(&words(line));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`dqs {line}`: {out:?}");
        assert!(stderr.contains(named), "`dqs {line}`: {stderr}");
    }
}

/// Every `dqs <sub-command> ...` invocation in `text`: the sub-command and
/// the flags it is given. An invocation starts at `--bin dqs --`, `$DQS`
/// or a path ending in `/dqs`, and runs (across `\` continuations) to the
/// first shell operator.
fn invocations(text: &str, known: &BTreeSet<&str>) -> Vec<(String, BTreeSet<String>)> {
    let joined = text.replace("\\\n", " ");
    let mut found = Vec::new();
    for line in joined.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some(at) = tokens
            .iter()
            .position(|t| *t == "$DQS" || *t == "dqs" || t.ends_with("/dqs"))
        else {
            continue;
        };
        let mut rest = tokens[at + 1..].iter().copied().peekable();
        if rest.peek() == Some(&"--") {
            rest.next();
        }
        let rest: Vec<&str> = rest
            .take_while(|t| !t.starts_with(['&', '|', '>', '<', '#', ')']))
            .collect();
        let two = rest.iter().take(2).copied().collect::<Vec<_>>().join(" ");
        let cmd = match rest.first() {
            Some(_) if known.contains(two.as_str()) => two,
            Some(one) if known.contains(one) => one.to_string(),
            _ => continue,
        };
        let flags = rest.iter().filter(|t| t.starts_with("--"));
        found.push((cmd, flags.map(|f| f.to_string()).collect()));
    }
    found
}

#[test]
fn documented_command_lines_use_only_flags_that_exist() {
    let usage = usage_flags();
    let known: BTreeSet<&str> = usage.keys().map(String::as_str).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for doc in [
        "README.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ] {
        let Ok(text) = std::fs::read_to_string(root.join(doc)) else {
            assert_ne!(doc, "README.md", "README.md must be readable");
            continue;
        };
        for (cmd, flags) in invocations(&text, &known) {
            // CI's own check that an unknown flag is refused.
            if flags.contains("--no-such-flag") {
                continue;
            }
            let unknown: Vec<_> = flags.difference(&usage[&cmd]).collect();
            assert!(unknown.is_empty(), "{doc}: `dqs {cmd}` with {unknown:?}");
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} command lines found");
}
