//! `BENCHMARK.json` as the benchmark's contract with whoever runs it: the
//! binary measures exactly the names the file declares, in the declared
//! units, or it does not run.

use std::fs;

use dqs_exec::json::{self, Json};

/// A metric the file declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics carry none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: u64,
}

/// The value under `key` when `v` is an object that has it.
pub fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    get(v, key).ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn list<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))
}

fn declared(v: &Json) -> Result<Declared, String> {
    Ok(Declared {
        name: text(v, "name")?,
        unit: text(v, "unit")?,
        bound: get(v, "bound").and_then(Json::as_f64),
    })
}

impl Manifest {
    /// Read the file from the working directory: the benchmark runs from
    /// the root of a checkout.
    pub fn load() -> Result<Manifest, String> {
        let raw = fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the root of the repository)"))?;
        let v = json::parse(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Manifest {
            workloads: list(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list(&v, "end_to_end")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
            per_layer: list(&v, "per_layer")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
            run_seconds: field(&v, "run_seconds")?
                .as_u64()
                .ok_or("BENCHMARK.json: run_seconds is not a whole number")?,
        })
    }

    /// Refuse to run unless the file and the binary agree, both ways, on
    /// every workload name and every metric's name and unit.
    pub fn check(
        &self,
        workloads: &[&str],
        end_to_end: &[(&str, &str)],
        per_layer: &[(&str, &str)],
    ) -> Result<(), String> {
        let mut wrong = Vec::new();
        let names: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        for w in workloads.iter().filter(|w| !names.contains(w)) {
            wrong.push(format!("workload {w} is run but not declared"));
        }
        for w in names.iter().filter(|w| !workloads.contains(w)) {
            wrong.push(format!("workload {w} is declared but not run"));
        }
        for (what, file, code) in [
            ("end_to_end", &self.end_to_end, end_to_end),
            ("per_layer", &self.per_layer, per_layer),
        ] {
            for (name, unit) in code {
                match file.iter().find(|d| d.name == *name) {
                    None => wrong.push(format!("{what} {name} is measured but not declared")),
                    Some(d) if d.unit != *unit => wrong.push(format!(
                        "{what} {name} is measured in {unit} but declared in {}",
                        d.unit
                    )),
                    Some(_) => {}
                }
            }
            for d in file
                .iter()
                .filter(|d| !code.iter().any(|(n, _)| d.name == *n))
            {
                wrong.push(format!("{what} {} is declared but not measured", d.name));
            }
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json and dqs-perf disagree:\n  {}",
                wrong.join("\n  ")
            ))
        }
    }
}
