//! Regenerate the paper's tables and figures: `repro <command> [--csv PATH]`.
//!
//! [`COMMANDS`] is the one list of what `repro` can run; dispatch, `all`
//! and the usage text (`repro help`) are all read from it. Every command is
//! a pure simulation on the virtual clock — the serving plane is measured
//! by the benchmark under `perf/`, not here.

use dqs_bench::experiments as ex;

/// How a command produces its report.
enum Run {
    /// Prints a report.
    Text(fn() -> String),
    /// Prints a report and can also write the plotted series as CSV.
    Plot(fn() -> (String, String)),
}

/// One `repro` sub-command.
struct Command {
    name: &'static str,
    about: &'static str,
    run: Run,
}

/// Every sub-command, in the order `all` runs them.
const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        about: "Table 1 simulation parameters",
        run: Run::Text(ex::table1),
    },
    Command {
        name: "figure5",
        about: "the experiment QEP and its pipeline chains",
        run: Run::Text(ex::figure5),
    },
    Command {
        name: "headline",
        about: "SEQ/MA/DSE/LWB at w_min (sanity row)",
        run: Run::Text(ex::headline),
    },
    Command {
        name: "figure6",
        about: "slow down relation A (Figure 6)",
        run: Run::Plot(|| slowdown('A')),
    },
    Command {
        name: "figure7",
        about: "slow down relation F (Figure 7)",
        run: Run::Plot(|| slowdown('F')),
    },
    Command {
        name: "figure6-all",
        about: "slow down each relation in turn (§5.2)",
        run: Run::Text(|| {
            dqs_plan::Fig5::letters()
                .into_iter()
                .map(|letter| ex::render_slowdown(letter, &ex::slowdown_sweep(letter)) + "\n")
                .collect()
        }),
    },
    Command {
        name: "figure8",
        about: "raise w_min for all wrappers (Figure 8)",
        run: Run::Plot(|| {
            let rows = ex::figure8();
            (ex::render_figure8(&rows), ex::figure8_csv(&rows))
        }),
    },
    Command {
        name: "delay-taxonomy",
        about: "initial / bursty / slow delays (§1.2) under all strategies",
        run: Run::Text(ex::delay_taxonomy),
    },
    Command {
        name: "memory",
        about: "shrinking memory budgets (§4.1/§4.2)",
        run: Run::Text(ex::memory_pressure),
    },
    Command {
        name: "multi-query",
        about: "N concurrent queries: throughput vs response (§6)",
        run: Run::Text(ex::multi_query),
    },
    Command {
        name: "scrambling",
        about: "query scrambling baseline + timeout sweep (§1.2)",
        run: Run::Text(ex::scrambling),
    },
    Command {
        name: "ablate-bmt",
        about: "benefit-materialization threshold sweep (A1)",
        run: Run::Text(ex::ablate_bmt),
    },
    Command {
        name: "ablate-batch",
        about: "DQP batch-size sweep (A2)",
        run: Run::Text(ex::ablate_batch),
    },
    Command {
        name: "ablate-queue",
        about: "queue-capacity sweep (A3)",
        run: Run::Text(ex::ablate_queue),
    },
    Command {
        name: "ablate-dse",
        about: "DSE feature knock-outs (A6)",
        run: Run::Text(ex::ablate_dse_features),
    },
    Command {
        name: "ablate-rate",
        about: "RateChange threshold sweep",
        run: Run::Text(ex::ablate_rate),
    },
];

/// A Figure 6/7-style sweep over one relation: `(data table, CSV)`.
fn slowdown(letter: char) -> (String, String) {
    let rows = ex::slowdown_sweep(letter);
    (ex::render_slowdown(letter, &rows), ex::slowdown_csv(&rows))
}

fn usage() -> String {
    let mut out = String::from("usage: repro <command> [--csv PATH]\n\n");
    for c in COMMANDS {
        let csv = match c.run {
            Run::Text(_) => "",
            Run::Plot(_) => " (--csv: the plotted series)",
        };
        out.push_str(&format!("  {:15} {}{csv}\n", c.name, c.about));
    }
    out.push_str("  all             everything above, in order\n");
    out
}

/// What a valid command line asks for.
enum Request<'a> {
    /// Every command in table order.
    All,
    /// One command, with the `--csv` target if given.
    One(&'static Command, Option<&'a str>),
}

/// Parse `<command> [--csv PATH]`. `None` means print the usage text:
/// unknown command, stray arguments, or `--csv` where there is no single
/// series to write (`all`, where every figure would land on the same path,
/// and the commands that only print a report).
fn parse(args: &[String]) -> Option<Request<'_>> {
    let (name, rest) = args.split_first()?;
    let csv = match rest {
        [] => None,
        [flag, path] if flag == "--csv" => Some(path.as_str()),
        _ => return None,
    };
    if name == "all" {
        return csv.is_none().then_some(Request::All);
    }
    let cmd = COMMANDS.iter().find(|c| c.name == name)?;
    if csv.is_some() && matches!(cmd.run, Run::Text(_)) {
        return None;
    }
    Some(Request::One(cmd, csv))
}

/// Run one command; `csv` is only ever set for a [`Run::Plot`] (see [`parse`]).
fn run(cmd: &Command, csv: Option<&str>) {
    let (report, series) = match cmd.run {
        Run::Text(f) => (f(), String::new()),
        Run::Plot(f) => f(),
    };
    print!("{report}");
    if let Some(path) = csv {
        std::fs::write(path, series).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("csv written to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Some(Request::All) => {
            for c in COMMANDS {
                println!("===== {} =====", c.name);
                run(c, None);
                println!();
            }
        }
        Some(Request::One(cmd, csv)) => run(cmd, csv),
        None => {
            eprint!("{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn only_table_commands_parse_and_csv_needs_a_single_series() {
        assert!(matches!(
            parse(&args("figure6 --csv out.csv")),
            Some(Request::One(c, Some("out.csv"))) if c.name == "figure6"
        ));
        assert!(matches!(parse(&args("all")), Some(Request::All)));
        // `all` would write figure6, figure7 and figure8 to one path.
        assert!(parse(&args("all --csv out.csv")).is_none());
        // table1 only prints a report; the flag used to be ignored.
        assert!(parse(&args("table1 --csv out.csv")).is_none());
        assert!(parse(&args("figure6 --csv")).is_none());
        // Serving experiments live in perf/ now; unknown means usage.
        assert!(parse(&args("morsel")).is_none());
        assert!(parse(&[]).is_none());
    }

    /// The sub-command each `repro <cmd>` mention in `text` names: the
    /// lower-case word after a free-standing "repro ", skipping cargo's
    /// `--` separator. "`repro` prints" and "reproduce" are not mentions.
    fn mentioned(text: &str) -> Vec<&str> {
        let mut found = Vec::new();
        for (at, word) in text.match_indices("repro ") {
            if text[..at].ends_with(char::is_alphanumeric) {
                continue;
            }
            let rest = text[at + word.len()..].trim_start();
            let rest = rest.strip_prefix("-- ").unwrap_or(rest);
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                .unwrap_or(rest.len());
            if rest.starts_with(|c: char| c.is_ascii_lowercase()) {
                found.push(&rest[..end]);
            }
        }
        found
    }

    #[test]
    fn docs_name_only_commands_that_exist_and_every_command_is_documented() {
        assert_eq!(
            mentioned("`repro figure6-all`, --bin repro -- table1; `repro` prints, reproduce it"),
            ["figure6-all", "table1"]
        );
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let read = |name: &str| {
            std::fs::read_to_string(format!("{root}{name}"))
                .unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
        };
        // `help` is no command: like anything unknown it gets the usage text.
        let known =
            |cmd: &str| ["all", "help"].contains(&cmd) || COMMANDS.iter().any(|c| c.name == cmd);
        let mut documented = Vec::new();
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            let text = read(doc);
            for cmd in mentioned(&text) {
                assert!(
                    known(cmd),
                    "{doc} mentions `repro {cmd}`, which repro does not have"
                );
                if doc != "README.md" {
                    documented.push(cmd.to_string());
                }
            }
        }
        for c in COMMANDS {
            assert!(
                documented.iter().any(|d| d == c.name),
                "`repro {}` appears in neither EXPERIMENTS.md nor DESIGN.md",
                c.name
            );
        }
    }

    /// DESIGN §3's inventory block has one `  name/` row entry per
    /// directory under `crates/` with a `Cargo.toml`, no other, and the
    /// sentence above it counts them as they are on disk.
    #[test]
    fn design_crate_inventory_matches_the_crate_directories() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let design = std::fs::read_to_string(format!("{root}DESIGN.md")).unwrap();
        let section = design
            .split("\n## 3. ")
            .nth(1)
            .and_then(|s| s.split("\n## 4. ").next())
            .expect("DESIGN.md has a §3");
        let block = section.split("```").nth(1).expect("§3's inventory block");
        let mut rows: Vec<&str> = block
            .lines()
            .filter_map(|l| l.strip_prefix("  ").filter(|l| !l.starts_with(' ')))
            .flat_map(|l| l.split_whitespace().take_while(|w| w.ends_with('/')))
            .map(|w| w.trim_end_matches('/'))
            .collect();
        rows.sort_unstable();
        let (mut dirs, mut ours) = (Vec::new(), 0);
        for entry in std::fs::read_dir(format!("{root}crates")).unwrap() {
            let dir = entry.unwrap().path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            ours += usize::from(manifest.contains("name = \"dqs-"));
            dirs.push(dir.file_name().unwrap().to_string_lossy().into_owned());
        }
        dirs.sort_unstable();
        assert_eq!(rows, dirs, "DESIGN §3 rows against crates/*/Cargo.toml");
        let words = [
            "zero",
            "one",
            "two",
            "three",
            "four",
            "five",
            "six",
            "seven",
            "eight",
            "nine",
            "ten",
            "eleven",
            "twelve",
            "thirteen",
            "fourteen",
            "fifteen",
            "sixteen",
            "seventeen",
            "eighteen",
            "nineteen",
            "twenty",
        ];
        let count = format!(
            "{} workspace crates plus {} vendored dependency stand-ins",
            words[ours],
            words[dirs.len() - ours]
        );
        let prose = section.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(
            prose.to_lowercase().contains(&count),
            "DESIGN §3 should say \"{count}\""
        );
    }
}
