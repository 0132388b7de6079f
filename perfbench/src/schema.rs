//! `BENCHMARK.json`: the benchmark's declaration of its command,
//! workloads and metrics. Parsing checks every limit of the format, so
//! a malformed declaration fails before any run.

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const TOP_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn exact_keys(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    let kv = v.as_obj().ok_or(format!("{what}: not an object"))?;
    let mut got: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("{what}: keys {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn string(v: &Value, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("{what}: {key} must be a string"))
}

fn valid_name(s: &str) -> bool {
    let mut cs = s.chars();
    s.len() <= 64
        && cs.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn metrics(v: &Value, key: &str, with_bound: bool) -> Result<Vec<Metric>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("{key} must be a list"))?;
    let mut out = Vec::new();
    for m in arr {
        let what = format!("{key} entry");
        let keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        exact_keys(m, keys, &what)?;
        let name = string(m, "name", &what)?;
        let unit = string(m, "unit", &what)?;
        let better = string(m, "better", &what)?;
        if !valid_name(&name) {
            return Err(format!("{what}: bad name {name:?}"));
        }
        if !valid_unit(&unit) {
            return Err(format!("{what} {name}: bad unit {unit:?}"));
        }
        if better != "lower" && better != "higher" {
            return Err(format!("{what} {name}: better must be lower or higher"));
        }
        let bound = if with_bound {
            let b = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{what} {name}: bound must be a number"))?;
            if !(b > 0.0 && b <= 0.25) {
                return Err(format!("{what} {name}: bound {b} outside (0, 0.25]"));
            }
            Some(b)
        } else {
            None
        };
        out.push(Metric {
            name,
            unit,
            better,
            bound,
        });
    }
    Ok(out)
}

impl Spec {
    /// Parse and check a declaration.
    pub fn from_value(v: &Value) -> Result<Spec, String> {
        exact_keys(v, &TOP_KEYS, "BENCHMARK.json")?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("{key} must be a list"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{key}: entries must be strings"))
                })
                .collect()
        };
        let command = strings("command")?;
        if command.is_empty() || command.len() > 32 || command.iter().any(|c| c.len() > 200) {
            return Err("command: 1 to 32 strings of at most 200 characters".into());
        }
        if command
            .iter()
            .any(|c| c.starts_with('/') || c.split('/').any(|p| p == ".."))
        {
            return Err("command: no absolute paths and no '..'".into());
        }
        let paths = strings("paths")?;
        if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| valid_path(p)) {
            return Err("paths: 1 to 16 relative directory names".into());
        }
        let run_seconds =
            v.get("run_seconds")
                .and_then(Value::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;
        let wl = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("workloads must be a list")?;
        let mut workloads = Vec::new();
        for w in wl {
            exact_keys(w, &["name", "why"], "workload")?;
            let name = string(w, "name", "workload")?;
            let why = string(w, "why", "workload")?;
            if !valid_name(&name) || why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!("workload {name:?}: bad name or why"));
            }
            workloads.push(Workload { name, why });
        }
        if !(2..=8).contains(&workloads.len()) {
            return Err("workloads: 2 to 8 entries".into());
        }
        let end_to_end = metrics(v, "end_to_end", true)?;
        let per_layer = metrics(v, "per_layer", false)?;
        if !(1..=16).contains(&end_to_end.len()) || !(1..=128).contains(&per_layer.len()) {
            return Err("end_to_end: 1 to 16 metrics; per_layer: 1 to 128".into());
        }
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
        {
            return Err("end_to_end must declare setup_s [s], lower is better".into());
        }
        let mut names: Vec<&str> = workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(end_to_end.iter().map(|m| m.name.as_str()))
            .chain(per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        names.sort_unstable();
        if let Some(d) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used twice", d[0]));
        }
        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Parse the text of a declaration (at most 64 KiB).
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("BENCHMARK.json is larger than 64 KiB".into());
        }
        Spec::from_value(&crate::json::parse(text)?)
    }

    /// The declaration as a JSON value (inverse of [`Spec::from_value`]).
    pub fn to_value(&self) -> Value {
        let s = |x: &str| Value::Str(x.to_string());
        let metric = |m: &Metric| {
            let mut kv = vec![
                ("name".to_string(), s(&m.name)),
                ("unit".to_string(), s(&m.unit)),
                ("better".to_string(), s(&m.better)),
            ];
            if let Some(b) = m.bound {
                kv.push(("bound".to_string(), Value::Num(b)));
            }
            Value::Obj(kv)
        };
        Value::Obj(vec![
            (
                "command".into(),
                Value::Arr(self.command.iter().map(|c| s(c)).collect()),
            ),
            (
                "paths".into(),
                Value::Arr(self.paths.iter().map(|p| s(p)).collect()),
            ),
            ("run_seconds".into(), Value::Num(self.run_seconds as f64)),
            (
                "workloads".into(),
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Value::Obj(vec![("name".into(), s(&w.name)), ("why".into(), s(&w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Value::Arr(self.end_to_end.iter().map(metric).collect()),
            ),
            (
                "per_layer".into(),
                Value::Arr(self.per_layer.iter().map(metric).collect()),
            ),
        ])
    }
}
