//! Plumbing of the wall-clock bench binaries (`sim_perf`, `kernels`),
//! whose JSON reports hold one *column* per measured build: the shared
//! `[--smoke] [--label NAME] [--baseline FILE]` options, the baseline
//! column a new measurement is written next to, and the write-back with a
//! schema round-trip check.

use std::path::{Path, PathBuf};

use cscnn::json::{from_str, to_string_pretty, Value};

/// Command-line options of a column-merging bench binary.
pub struct Options {
    /// Tiny inputs and budgets, written under `target/` (CI schema check).
    pub smoke: bool,
    /// Name of the column this run measures (default `current`).
    pub label: String,
    /// Earlier report whose last column is copied in front of this run's.
    pub baseline: Option<PathBuf>,
}

impl Options {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics on an unknown argument or a flag missing its value.
    pub fn from_args() -> Self {
        let mut opts = Options {
            smoke: false,
            label: "current".to_string(),
            baseline: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--label" => opts.label = args.next().expect("--label needs a value"),
                "--baseline" => {
                    opts.baseline = Some(args.next().expect("--baseline needs a file").into());
                }
                other => panic!("unknown argument `{other}`; see the module docs for usage"),
            }
        }
        opts
    }

    /// `"smoke"` or `"full"`, recorded in the report.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The last column of the `--baseline` report, if one was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be read or parsed, has another `schema`,
    /// was measured in the other mode, or holds no column.
    pub fn baseline_column(&self, schema: &str) -> Option<Value> {
        let path = self.baseline.as_ref()?;
        let text = std::fs::read_to_string(path).expect("reading the baseline report");
        let old: Value = from_str(&text).expect("baseline parses");
        assert_eq!(old.get("schema").and_then(Value::as_str), Some(schema));
        assert_eq!(
            old.get("mode").and_then(Value::as_str),
            Some(self.mode()),
            "baseline ran in another mode"
        );
        let last = old
            .get("columns")
            .and_then(Value::as_array)
            .and_then(|c| c.last())
            .expect("baseline has a column");
        Some(last.clone())
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes `report` to `path`, then reads it back and checks its `schema`,
/// so schema rot fails the smoke run, not a downstream consumer.
///
/// # Panics
///
/// Panics if the file cannot be written or does not read back.
pub fn write(path: &Path, report: &Value, schema: &str) {
    let text = to_string_pretty(report).expect("report serializes");
    std::fs::write(path, &text).expect("writing the bench report");
    let parsed: Value = from_str(&std::fs::read_to_string(path).expect("re-reading report"))
        .expect("report parses back");
    assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(schema));
    println!("wrote {}", path.display());
}
