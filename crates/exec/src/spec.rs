//! JSON workload specifications.
//!
//! A spec names the remote relations (with their delivery behaviour), the
//! join graph, and the engine configuration; the classical DP optimizer
//! (§5.1.1) turns the join graph into a bushy plan. This is the external
//! interface a mediator deployment would feed the engine — see
//! `examples/specs/*.json`.
//!
//! Decoding is strict, mirroring serde's `deny_unknown_fields`: unknown or
//! duplicate keys, missing required fields and type mismatches are all
//! [`SpecError::Parse`] errors.

use crate::json::{self, Json};

use crate::workload::{EngineConfig, Workload};
use dqs_plan::{optimize, Catalog, JoinGraph};
use dqs_sim::SimDuration;
use dqs_source::DelayModel;

/// One remote relation.
#[derive(Debug, Clone)]
pub struct RelationSpec {
    /// Name used by the join specs.
    pub name: String,
    /// Cardinality estimate the mediator plans with.
    pub cardinality: u64,
    /// Tuples the wrapper really delivers (defaults to `cardinality`).
    pub actual_cardinality: Option<u64>,
    /// Delivery pacing (defaults to the platform `w_min`).
    pub delay: Option<DelaySpec>,
}

/// Delivery pacing, mirroring `dqs_source::DelayModel`.
#[derive(Debug, Clone)]
pub enum DelaySpec {
    /// Fixed inter-tuple gap in microseconds.
    ConstantUs(u64),
    /// Uniform gaps in `[0, 2·mean]`, mean in microseconds.
    UniformUs(u64),
    /// First tuple delayed, rest uniform.
    Initial {
        /// Delay before the first tuple, milliseconds.
        delay_ms: u64,
        /// Mean gap afterwards, microseconds.
        mean_us: u64,
    },
    /// Bursts separated by silence.
    Bursty {
        /// Tuples per burst.
        burst: u64,
        /// Gap within a burst, microseconds.
        within_us: u64,
        /// Silence between bursts, milliseconds.
        pause_ms: u64,
    },
}

impl DelaySpec {
    /// Convert to the engine's delay model.
    pub fn to_model(&self) -> DelayModel {
        match *self {
            DelaySpec::ConstantUs(us) => DelayModel::Constant {
                w: SimDuration::from_micros(us),
            },
            DelaySpec::UniformUs(us) => DelayModel::Uniform {
                mean: SimDuration::from_micros(us),
            },
            DelaySpec::Initial { delay_ms, mean_us } => DelayModel::Initial {
                initial: SimDuration::from_millis(delay_ms),
                mean: SimDuration::from_micros(mean_us),
            },
            DelaySpec::Bursty {
                burst,
                within_us,
                pause_ms,
            } => DelayModel::Bursty {
                burst,
                within: SimDuration::from_micros(within_us),
                pause: SimDuration::from_millis(pause_ms),
            },
        }
    }

    /// Parse a delay spec from JSON text (the externally-tagged form used
    /// inside workload files, e.g. `{"uniform_us": 100}`).
    pub fn from_json(text: &str) -> Result<DelaySpec, SpecError> {
        let v = json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        decode_delay(&v)
    }
}

/// One join predicate between two named relations.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Left relation name.
    pub left: String,
    /// Right relation name.
    pub right: String,
    /// Classical join selectivity `|L ⋈ R| / (|L|·|R|)`.
    pub selectivity: f64,
}

/// Engine knobs (all optional).
#[derive(Debug, Clone, Default)]
pub struct ConfigSpec {
    /// Query memory budget in megabytes.
    pub memory_mb: Option<u64>,
    /// Communication queue capacity in tuples.
    pub queue_capacity: Option<usize>,
    /// DQP batch size in tuples.
    pub batch_size: Option<usize>,
    /// Stall timeout in milliseconds (0 disables).
    pub timeout_ms: Option<u64>,
    /// Master seed.
    pub seed: Option<u64>,
    /// Morsel worker threads (1 = serial execution).
    pub workers: Option<usize>,
}

/// The whole workload file.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Remote relations.
    pub relations: Vec<RelationSpec>,
    /// Join graph (must connect all relations).
    pub joins: Vec<JoinSpec>,
    /// Engine configuration overrides.
    pub config: ConfigSpec,
}

/// Errors turning a spec into a workload.
#[derive(Debug)]
pub enum SpecError {
    /// JSON syntax / schema problem.
    Parse(String),
    /// A join references an unknown relation.
    UnknownRelation(String),
    /// Structural problems (optimizer rejected the join graph, ...).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec parse error: {e}"),
            SpecError::UnknownRelation(n) => write!(f, "join references unknown relation {n:?}"),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

// --- strict object decoding -------------------------------------------------

/// Tracks which keys of an object have been consumed so leftovers can be
/// rejected, matching serde's `deny_unknown_fields`.
struct Fields<'a> {
    what: &'static str,
    entries: &'a [(String, Json)],
    seen: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, what: &'static str) -> Result<Fields<'a>, SpecError> {
        let entries = v.as_object().ok_or_else(|| {
            SpecError::Parse(format!("{what}: expected object, got {}", v.kind()))
        })?;
        Ok(Fields {
            what,
            seen: vec![false; entries.len()],
            entries,
        })
    }

    fn take(&mut self, name: &str) -> Option<&'a Json> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == name {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn require(&mut self, name: &str) -> Result<&'a Json, SpecError> {
        self.take(name)
            .ok_or_else(|| SpecError::Parse(format!("{}: missing field {name:?}", self.what)))
    }

    fn deny_unknown(self) -> Result<(), SpecError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.seen[i] {
                return Err(SpecError::Parse(format!(
                    "{}: unknown field {k:?}",
                    self.what
                )));
            }
        }
        Ok(())
    }
}

fn decode_string(v: &Json, what: &str) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError::Parse(format!("{what}: expected string, got {}", v.kind())))
}

fn decode_u64(v: &Json, what: &str) -> Result<u64, SpecError> {
    v.as_u64().ok_or_else(|| {
        SpecError::Parse(format!(
            "{what}: expected non-negative integer, got {}",
            v.kind()
        ))
    })
}

fn decode_f64(v: &Json, what: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .ok_or_else(|| SpecError::Parse(format!("{what}: expected number, got {}", v.kind())))
}

fn decode_delay(v: &Json) -> Result<DelaySpec, SpecError> {
    let entries = v
        .as_object()
        .ok_or_else(|| SpecError::Parse(format!("delay: expected object, got {}", v.kind())))?;
    let [(tag, body)] = entries else {
        return Err(SpecError::Parse(
            "delay: expected exactly one variant key".into(),
        ));
    };
    match tag.as_str() {
        "constant_us" => Ok(DelaySpec::ConstantUs(decode_u64(
            body,
            "delay.constant_us",
        )?)),
        "uniform_us" => Ok(DelaySpec::UniformUs(decode_u64(body, "delay.uniform_us")?)),
        "initial" => {
            let mut f = Fields::new(body, "delay.initial")?;
            let spec = DelaySpec::Initial {
                delay_ms: decode_u64(f.require("delay_ms")?, "delay.initial.delay_ms")?,
                mean_us: decode_u64(f.require("mean_us")?, "delay.initial.mean_us")?,
            };
            f.deny_unknown()?;
            Ok(spec)
        }
        "bursty" => {
            let mut f = Fields::new(body, "delay.bursty")?;
            let spec = DelaySpec::Bursty {
                burst: decode_u64(f.require("burst")?, "delay.bursty.burst")?,
                within_us: decode_u64(f.require("within_us")?, "delay.bursty.within_us")?,
                pause_ms: decode_u64(f.require("pause_ms")?, "delay.bursty.pause_ms")?,
            };
            f.deny_unknown()?;
            Ok(spec)
        }
        other => Err(SpecError::Parse(format!(
            "delay: unknown variant {other:?}"
        ))),
    }
}

fn decode_relation(v: &Json) -> Result<RelationSpec, SpecError> {
    let mut f = Fields::new(v, "relation")?;
    let spec = RelationSpec {
        name: decode_string(f.require("name")?, "relation.name")?,
        cardinality: decode_u64(f.require("cardinality")?, "relation.cardinality")?,
        actual_cardinality: f
            .take("actual_cardinality")
            .map(|v| decode_u64(v, "relation.actual_cardinality"))
            .transpose()?,
        delay: f.take("delay").map(decode_delay).transpose()?,
    };
    f.deny_unknown()?;
    Ok(spec)
}

fn decode_join(v: &Json) -> Result<JoinSpec, SpecError> {
    let mut f = Fields::new(v, "join")?;
    let spec = JoinSpec {
        left: decode_string(f.require("left")?, "join.left")?,
        right: decode_string(f.require("right")?, "join.right")?,
        selectivity: decode_f64(f.require("selectivity")?, "join.selectivity")?,
    };
    f.deny_unknown()?;
    Ok(spec)
}

fn decode_config(v: &Json) -> Result<ConfigSpec, SpecError> {
    let mut f = Fields::new(v, "config")?;
    let spec = ConfigSpec {
        memory_mb: f
            .take("memory_mb")
            .map(|v| decode_u64(v, "config.memory_mb"))
            .transpose()?,
        queue_capacity: f
            .take("queue_capacity")
            .map(|v| decode_u64(v, "config.queue_capacity").map(|n| n as usize))
            .transpose()?,
        batch_size: f
            .take("batch_size")
            .map(|v| decode_u64(v, "config.batch_size").map(|n| n as usize))
            .transpose()?,
        timeout_ms: f
            .take("timeout_ms")
            .map(|v| decode_u64(v, "config.timeout_ms"))
            .transpose()?,
        seed: f
            .take("seed")
            .map(|v| decode_u64(v, "config.seed"))
            .transpose()?,
        workers: f
            .take("workers")
            .map(|v| decode_u64(v, "config.workers").map(|n| n as usize))
            .transpose()?,
    };
    f.deny_unknown()?;
    Ok(spec)
}

impl WorkloadSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<WorkloadSpec, SpecError> {
        let v = json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        let mut f = Fields::new(&v, "workload")?;
        let relations = f
            .require("relations")?
            .as_array()
            .ok_or_else(|| SpecError::Parse("workload.relations: expected array".into()))?
            .iter()
            .map(decode_relation)
            .collect::<Result<Vec<_>, _>>()?;
        let joins = f
            .require("joins")?
            .as_array()
            .ok_or_else(|| SpecError::Parse("workload.joins: expected array".into()))?
            .iter()
            .map(decode_join)
            .collect::<Result<Vec<_>, _>>()?;
        let config = f
            .take("config")
            .map(decode_config)
            .transpose()?
            .unwrap_or_default();
        f.deny_unknown()?;
        Ok(WorkloadSpec {
            relations,
            joins,
            config,
        })
    }

    /// Build the executable workload: catalog + DP-optimized plan + delays.
    pub fn into_workload(self) -> Result<Workload, SpecError> {
        if self.relations.len() < 2 {
            return Err(SpecError::Invalid("need at least two relations".into()));
        }
        let mut catalog = Catalog::new();
        let mut ids = std::collections::HashMap::new();
        for r in &self.relations {
            if ids.contains_key(r.name.as_str()) {
                return Err(SpecError::Invalid(format!(
                    "duplicate relation {:?}",
                    r.name
                )));
            }
            let id = catalog.add(r.name.clone(), r.cardinality);
            ids.insert(r.name.as_str(), id);
        }
        let mut graph = JoinGraph::new();
        for j in &self.joins {
            let l = *ids
                .get(j.left.as_str())
                .ok_or_else(|| SpecError::UnknownRelation(j.left.clone()))?;
            let r = *ids
                .get(j.right.as_str())
                .ok_or_else(|| SpecError::UnknownRelation(j.right.clone()))?;
            if l == r {
                return Err(SpecError::Invalid(format!("self-join on {:?}", j.left)));
            }
            if j.selectivity <= 0.0 || j.selectivity.is_nan() || !j.selectivity.is_finite() {
                return Err(SpecError::Invalid(format!(
                    "selectivity {} out of range",
                    j.selectivity
                )));
            }
            graph.join(l, r, j.selectivity);
        }
        let qep = optimize(&catalog, &graph).map_err(|e| SpecError::Invalid(e.to_string()))?;

        let mut workload = Workload::new(catalog, qep);
        for r in &self.relations {
            let id = ids[r.name.as_str()];
            if let Some(d) = &r.delay {
                workload = workload.with_delay(id, d.to_model());
            }
            if let Some(n) = r.actual_cardinality {
                workload = workload.with_actual_cardinality(id, n);
            }
        }
        let c = &self.config;
        let cfg: &mut EngineConfig = &mut workload.config;
        if let Some(mb) = c.memory_mb {
            cfg.memory_bytes = mb * 1024 * 1024;
        }
        if let Some(q) = c.queue_capacity {
            cfg.queue_capacity = q;
        }
        if let Some(b) = c.batch_size {
            cfg.batch_size = b;
            cfg.queue_capacity = cfg.queue_capacity.max(b);
        }
        if let Some(ms) = c.timeout_ms {
            cfg.timeout = SimDuration::from_millis(ms);
        }
        if let Some(s) = c.seed {
            cfg.seed = s;
        }
        if let Some(w) = c.workers {
            cfg.workers = w.max(1);
        }
        Ok(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "relations": [
            {"name": "orders", "cardinality": 10000,
             "delay": {"uniform_us": 100}},
            {"name": "customers", "cardinality": 2000,
             "actual_cardinality": 1500}
        ],
        "joins": [
            {"left": "orders", "right": "customers", "selectivity": 0.0005}
        ],
        "config": {"memory_mb": 16, "seed": 7}
    }"#;

    #[test]
    fn good_spec_builds_a_workload() {
        let spec = WorkloadSpec::from_json(GOOD).unwrap();
        let w = spec.into_workload().unwrap();
        assert_eq!(w.catalog.len(), 2);
        assert_eq!(w.config.memory_bytes, 16 * 1024 * 1024);
        assert_eq!(w.config.seed, 7);
        assert_eq!(w.actual_cardinality(dqs_relop_rel(1)), 1_500);
        assert!(matches!(w.delays[0], DelayModel::Uniform { .. }));
    }

    fn dqs_relop_rel(i: u16) -> dqs_relop::RelId {
        dqs_relop::RelId(i)
    }

    #[test]
    fn unknown_relation_rejected() {
        let bad = GOOD.replace("\"right\": \"customers\"", "\"right\": \"nope\"");
        let err = WorkloadSpec::from_json(&bad)
            .unwrap()
            .into_workload()
            .unwrap_err();
        assert!(matches!(err, SpecError::UnknownRelation(_)));
    }

    #[test]
    fn unknown_fields_rejected() {
        let bad = GOOD.replace("\"memory_mb\": 16", "\"memory_mbb\": 16");
        assert!(matches!(
            WorkloadSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn missing_required_field_rejected() {
        let bad = GOOD.replace("\"cardinality\": 10000,", "");
        assert!(matches!(
            WorkloadSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn bad_selectivity_rejected() {
        let bad = GOOD.replace("0.0005", "-1.0");
        let err = WorkloadSpec::from_json(&bad)
            .unwrap()
            .into_workload()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)));
    }

    #[test]
    fn disconnected_graph_rejected() {
        let spec = r#"{
            "relations": [
                {"name": "a", "cardinality": 10},
                {"name": "b", "cardinality": 10},
                {"name": "c", "cardinality": 10}
            ],
            "joins": [
                {"left": "a", "right": "b", "selectivity": 0.1}
            ]
        }"#;
        let err = WorkloadSpec::from_json(spec)
            .unwrap()
            .into_workload()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)));
    }

    #[test]
    fn workers_config_round_trips() {
        let spec = GOOD.replace(
            r#""memory_mb": 16, "seed": 7"#,
            r#""memory_mb": 16, "seed": 7, "workers": 4"#,
        );
        let w = WorkloadSpec::from_json(&spec)
            .unwrap()
            .into_workload()
            .unwrap();
        assert_eq!(w.config.workers, 4);

        // The morsel size is a constant of the engine, not a knob.
        let retired = GOOD.replace(r#""seed": 7"#, r#""seed": 7, "morsel_tuples": 32"#);
        let err = WorkloadSpec::from_json(&retired).unwrap_err();
        assert!(
            matches!(&err, SpecError::Parse(m) if m.contains(r#"unknown field "morsel_tuples""#)),
            "{err}"
        );
    }

    #[test]
    fn all_delay_specs_convert() {
        for (json, want_constant) in [
            (r#"{"constant_us": 20}"#, true),
            (r#"{"uniform_us": 50}"#, false),
            (r#"{"initial": {"delay_ms": 100, "mean_us": 20}}"#, false),
            (
                r#"{"bursty": {"burst": 100, "within_us": 20, "pause_ms": 50}}"#,
                false,
            ),
        ] {
            let d = DelaySpec::from_json(json).unwrap();
            let m = d.to_model();
            assert_eq!(matches!(m, DelayModel::Constant { .. }), want_constant);
        }
    }
}
