//! The committed `BENCH_*.json` trajectories and the gates behind them.
//!
//! Every file `run_experiments` writes is one [`Trajectory`]: a schema
//! string and named sections, each section an [`Object`] that starts
//! with its own `quick` flag. [`FILES`] lists the nine files with their
//! schemas and sections; [`GATES`] lists every check a fresh section must
//! pass before the run may exit zero. A section whose experiment did not
//! run in this invocation is carried over from the committed file, so a
//! partial rerun never drops or relabels the other sections' numbers.
//!
//! The format is hand-rendered: the vendored serde is a no-op stand-in
//! (see `vendor/README.md`). The writer keeps one layout — two-space
//! indent, one section member per line, one row per line, floats with
//! three decimals and non-finite floats as `null` — so a rerun's diff
//! shows exactly the numbers that moved.

use std::fmt;
use std::path::{Path, PathBuf};

/// A JSON value as the trajectory files hold it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`: a float that was not finite, or a figure with no sample.
    Null,
    /// A verdict such as `matched`.
    Bool(bool),
    /// A count or size.
    Int(u64),
    /// A measurement; written with three decimals.
    Float(f64),
    /// A name (scenario, backend, threat, …).
    Str(String),
    /// Rows, or a short list of counts.
    List(Vec<Value>),
    /// Named members in writing order.
    Object(Object),
}

/// Named members in writing order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(pub Vec<(String, Value)>);

impl Object {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a member.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// The member named `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The member named `key`, for editing in place.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Value {
    /// The value as a number, when it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// Writes the value at nesting `depth` (the document is depth 0).
    /// The document, its sections and every list of rows put one member
    /// per line; everything deeper stays inline.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:.3}")),
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::List(items) => {
                let broken = items
                    .iter()
                    .any(|v| matches!(v, Value::List(_) | Value::Object(_)));
                write_members(out, depth, "[]", broken, items.iter().map(|v| (None, v)));
            }
            Value::Object(obj) => write_members(
                out,
                depth,
                "{}",
                depth < 2,
                obj.0.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 2);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

fn write_members<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    broken: bool,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let mut chars = brackets.chars();
    out.extend(chars.next());
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push_str(if broken { "," } else { ", " });
        }
        empty = false;
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if broken && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.extend(chars.next());
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}

value_from! {
    bool => |b| Value::Bool(b),
    u64 => |n| Value::Int(n),
    usize => |n| Value::Int(n as u64),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
    Object => |o| Value::Object(o),
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

/// `a / b`, or infinity (written `null`) when `b` is not positive.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// One trajectory file: a schema string and named sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The schema string, e.g. `drams-bench-e2e/v1`.
    pub schema: String,
    /// Sections in file order, each starting with its `quick` flag.
    pub sections: Vec<(String, Object)>,
}

impl Trajectory {
    /// The section named `name`.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&Object> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The file's text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut root = Object::new().with("schema", self.schema.as_str());
        root.0.extend(
            self.sections
                .iter()
                .map(|(name, s)| (name.clone(), Value::Object(s.clone()))),
        );
        let mut out = String::new();
        Value::Object(root).write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Reads a file written by [`Trajectory::render`].
    ///
    /// # Errors
    /// When the text is not JSON, or not an object that starts with a
    /// `schema` string followed by object-valued sections.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reader = Reader { text, at: 0 };
        let root = reader.value()?;
        reader.skip_ws();
        if reader.at != text.len() {
            return Err(reader.error("the end of the file"));
        }
        let Value::Object(root) = root else {
            return Err("the file is not a JSON object".into());
        };
        let mut members = root.0.into_iter();
        let schema = match members.next() {
            Some((key, Value::Str(schema))) if key == "schema" => schema,
            _ => return Err("the file does not start with a schema string".into()),
        };
        let sections = members
            .map(|(name, value)| match value {
                Value::Object(section) => Ok((name, section)),
                _ => Err(format!("section {name:?} is not an object")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { schema, sections })
    }
}

/// A recursive-descent reader for the JSON the writer emits.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.text[self.at..].chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        let found = self.peek() == Some(c);
        if found {
            self.at += c.len_utf8();
        }
        found
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("{c:?}")))
        }
    }

    fn error(&self, wanted: &str) -> String {
        format!("expected {wanted} at byte {}", self.at)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('{') => {
                self.at += 1;
                let members = self.items('}', |r| {
                    let key = r.string()?;
                    r.expect(':')?;
                    Ok((key, r.value()?))
                })?;
                Ok(Value::Object(Object(members)))
            }
            Some('[') => {
                self.at += 1;
                self.items(']', Self::value).map(Value::List)
            }
            Some('"') => self.string().map(Value::Str),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => {
                for (word, value) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.text[self.at..].starts_with(word) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("a value"))
            }
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is read.
    fn items<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if !self.eat(close) {
            loop {
                out.push(item(self)?);
                if self.eat(close) {
                    return Ok(out);
                }
                self.expect(',')?;
            }
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => out.extend(chars.next().map(|(_, c)| c)),
                c => out.push(c),
            }
        }
        Err(self.error("a closing quote"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.at..];
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        let digits = &rest[..len];
        let value = if digits.contains(['.', 'e', 'E', '-']) {
            digits.parse().ok().map(Value::Float)
        } else {
            digits.parse().ok().map(Value::Int)
        };
        let value = value.ok_or_else(|| self.error("a number"))?;
        self.at += len;
        Ok(value)
    }
}

/// Starts a section: its `quick` flag, then the experiment's fields.
#[must_use]
pub fn section(quick: bool, fields: Object) -> Object {
    let mut s = Object::new().with("quick", quick);
    s.0.extend(fields.0);
    s
}

/// One committed trajectory file.
#[derive(Debug)]
pub struct TrajectoryFile {
    /// File name at the repository root.
    pub file: &'static str,
    /// Schema string written as the file's first member.
    pub schema: &'static str,
    /// Section names in file order.
    pub sections: &'static [&'static str],
}

/// The nine committed trajectory files.
#[rustfmt::skip]
pub const FILES: [TrajectoryFile; 9] = [
    file("BENCH_PDP.json", "drams-bench-pdp/v2", &["e5_pdp_scaling", "e6_monitoring_overhead"]),
    file("BENCH_CRYPTO.json", "drams-bench-crypto/v1", &["e9_crypto"]),
    file(E2E, "drams-bench-e2e/v1", &["e10_scenarios"]),
    file(STORE, "drams-bench-store/v1", &["e11_store_engine", "e11_recovery"]),
    file(FUZZ, "drams-bench-fuzz/v1", &["e12_fuzz"]),
    file(FAULT, "drams-bench-fault/v1", &["e13_faults"]),
    file(LOAD, "drams-bench-load/v1", &["e14_load"]),
    file(PAR, "drams-bench-par/v1", &["e15_parallel"]),
    file(NET, "drams-bench-net/v1", &["e16_net"]),
];

const fn file(
    file: &'static str,
    schema: &'static str,
    sections: &'static [&'static str],
) -> TrajectoryFile {
    TrajectoryFile {
        file,
        schema,
        sections,
    }
}

const E2E: &str = "BENCH_E2E.json";
const STORE: &str = "BENCH_STORE.json";
const FUZZ: &str = "BENCH_FUZZ.json";
const FAULT: &str = "BENCH_FAULT.json";
const LOAD: &str = "BENCH_LOAD.json";
const PAR: &str = "BENCH_PAR.json";
const NET: &str = "BENCH_NET.json";

impl TrajectoryFile {
    /// The file's location at the repository root.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        repo_file(self.file)
    }

    /// The committed copy, or `None` when there is none.
    ///
    /// # Errors
    /// When the file exists but does not parse.
    pub fn committed(&self) -> Result<Option<Trajectory>, String> {
        match std::fs::read_to_string(self.path()) {
            Ok(text) => Trajectory::parse(&text).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// The file as this run leaves it: each section this run produced
    /// (`fresh`), and every other section carried over verbatim from the
    /// committed file (`previous`). A section in neither is omitted.
    #[must_use]
    pub fn assemble(
        &self,
        fresh: &[(String, Object)],
        previous: Option<&Trajectory>,
    ) -> Trajectory {
        let sections = self
            .sections
            .iter()
            .filter_map(|&name| {
                fresh
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, s)| s)
                    .or_else(|| previous.and_then(|p| p.section(name)))
                    .map(|s| (name.to_string(), s.clone()))
            })
            .collect();
        Trajectory {
            schema: self.schema.to_string(),
            sections,
        }
    }

    /// Applies this file's [`GATES`] to the sections this run produced.
    /// Relative checks compare against the committed file's section of
    /// the same mode. Returns one line per violation.
    #[must_use]
    pub fn gate_failures(
        &self,
        fresh: &[(String, Object)],
        previous: Option<&Trajectory>,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for gate in GATES.iter().filter(|g| g.file == self.file) {
            let Some((_, section)) = fresh.iter().find(|(n, _)| n == gate.section) else {
                continue;
            };
            let committed = previous
                .and_then(|p| p.section(gate.section))
                .filter(|c| c.get("quick") == section.get("quick"));
            let (part, column) = match gate.column.split_once('.') {
                Some((part, column)) => (Some(part), column),
                None => (None, gate.column),
            };
            let Some(rows) = parts(section, part) else {
                failures.push(format!("{}: {} is missing", gate.section, gate.column));
                continue;
            };
            let committed_rows = committed.and_then(|c| parts(c, part)).unwrap_or_default();
            for (label, row) in rows {
                let committed_row = committed_rows
                    .iter()
                    .find(|(l, _)| *l == label)
                    .map(|(_, r)| *r);
                if let Some(why) = gate.check.violation(row, column, committed_row) {
                    let at = [gate.section, label.as_str()].join(" ");
                    failures.push(format!("{}: {why}", at.trim_end()));
                }
            }
        }
        failures
    }
}

/// The objects a gate's `part` names within a section, each labelled for
/// messages and for matching the committed row: the section itself, one
/// nested object, or every row of a list (keyed by its first member when
/// that is a name). `None` when the section has no such part.
fn parts<'a>(section: &'a Object, part: Option<&str>) -> Option<Vec<(String, &'a Object)>> {
    let Some(part) = part else {
        return Some(vec![(String::new(), section)]);
    };
    match section.get(part)? {
        Value::Object(obj) => Some(vec![(part.to_string(), obj)]),
        Value::List(rows) => Some(
            rows.iter()
                .enumerate()
                .filter_map(|(i, row)| {
                    let Value::Object(row) = row else {
                        return None;
                    };
                    let key = match row.0.first() {
                        Some((_, Value::Str(name))) => name.clone(),
                        _ => i.to_string(),
                    };
                    Some((format!("{part}[{key}]"), row))
                })
                .collect(),
        ),
        _ => None,
    }
}

/// What a gated column must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// `== true`.
    True,
    /// `== 0`.
    Zero,
    /// `> 0`.
    Positive,
    /// Equal to another column of the same row.
    EqualTo(&'static str),
    /// Equal to one column of the same row minus another.
    EqualToDifference(&'static str, &'static str),
    /// Not below this factor times the committed same-mode value. Skipped
    /// when that value is missing or not above zero.
    NotBelowCommitted(f64),
    /// Not above this factor times the committed same-mode value. Skipped
    /// when that value is missing or not above zero.
    NotAboveCommitted(f64),
}

impl Check {
    /// Why `row[column]` fails the check, or `None` when it passes.
    fn violation(&self, row: &Object, column: &str, committed: Option<&Object>) -> Option<String> {
        let num = |key: &str| row.get(key).and_then(Value::as_f64);
        let value = num(column);
        let (ok, wanted) = match *self {
            Check::True => (row.get(column) == Some(&Value::Bool(true)), "true".into()),
            Check::Zero => (value == Some(0.0), "0".into()),
            Check::Positive => (value.is_some_and(|v| v > 0.0), "above 0".into()),
            Check::EqualTo(other) => (value.is_some() && value == num(other), other.into()),
            Check::EqualToDifference(a, b) => (
                matches!((value, num(a), num(b)), (Some(v), Some(a), Some(b)) if v == a - b),
                format!("{a} - {b}"),
            ),
            Check::NotBelowCommitted(factor) | Check::NotAboveCommitted(factor) => {
                let prev = committed
                    .and_then(|c| c.get(column))
                    .and_then(Value::as_f64)
                    .filter(|p| *p > 0.0)?;
                let below = matches!(self, Check::NotBelowCommitted(_));
                let limit = factor * prev;
                // A non-finite fresh value compares false and passes.
                let ok = value.is_some_and(|v| {
                    let worse = if below { v < limit } else { v > limit };
                    !worse
                });
                let side = if below { "at least" } else { "at most" };
                (ok, format!("{side} {factor}x the committed {prev}"))
            }
        };
        let shown = row
            .get(column)
            .map_or_else(|| "missing".to_string(), Value::to_string);
        (!ok).then(|| format!("{column} = {shown}, must be {wanted}"))
    }
}

/// One check on a column of a committed trajectory.
#[derive(Debug)]
pub struct Gate {
    /// The trajectory file.
    pub file: &'static str,
    /// The section within it.
    pub section: &'static str,
    /// `column` of the section itself, or `part.column` where `part` is a
    /// nested object or a list whose every row is checked.
    pub column: &'static str,
    /// What the column must satisfy.
    pub check: Check,
}

const fn gate(
    file: &'static str,
    section: &'static str,
    column: &'static str,
    check: Check,
) -> Gate {
    Gate {
        file,
        section,
        column,
        check,
    }
}

/// Every check a freshly produced section must pass. `run_experiments`
/// writes the file first and then exits non-zero on any violation, so a
/// regression is recorded in the diff rather than lost in a panic.
#[rustfmt::skip]
pub const GATES: &[Gate] = {
    use Check::*;
    &[
    // E10: a scenario's real-time factor may not halve against the
    // committed run of the same mode. Wall clock is noisy across hosts,
    // so the bar catches order-of-magnitude slowdowns, not jitter.
    gate(E2E, "e10_scenarios", "rows.sim_speedup", NotBelowCommitted(0.5)),
    // E11: every crashed run byte-identical to its uninterrupted twin.
    gate(STORE, "e11_recovery", "rows.matched", True),
    // E12: the fuzz oracle found nothing.
    gate(FUZZ, "e12_fuzz", "violations", Zero),
    // E13: faults are masked, never mistaken for attacks or hiding one.
    gate(FAULT, "e13_faults", "rows.alerts", Zero),
    gate(FAULT, "e13_faults", "rows.dropped", Zero),
    gate(FAULT, "e13_faults", "detection_under_faults.detected", EqualTo("attacks")),
    gate(FAULT, "e13_faults", "detection_under_faults.false_positives", Zero),
    gate(FAULT, "e13_faults", "crash_fault_twin.matched", True),
    // E14: peak tracked state may not double against the committed run.
    gate(LOAD, "e14_load", "honest.peak_pep_inflight", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_pdp_idempotency", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_pdp_decision_cache", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_li_resident", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_analyser_pending_retire", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_contract_storage", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_chain_journal_records", NotAboveCommitted(2.0)),
    gate(LOAD, "e14_load", "honest.peak_policy_history", NotAboveCommitted(2.0)),
    // E14: honest overload sheds real traffic without a single alert
    // and completes every admitted request; every campaign fires and is
    // fully detected while shedding; the crashed run matches its twin.
    gate(LOAD, "e14_load", "honest.alerts", Zero),
    gate(LOAD, "e14_load", "honest.shed", Positive),
    gate(LOAD, "e14_load", "honest.completed", EqualToDifference("requests", "shed")),
    gate(LOAD, "e14_load", "detection_under_overload.detected", EqualTo("attacks")),
    gate(LOAD, "e14_load", "detection_under_overload.attacks", Positive),
    gate(LOAD, "e14_load", "detection_under_overload.false_positives", Zero),
    gate(LOAD, "e14_load", "crash_overload_twin.matched", True),
    // E15: byte-identical at every worker count, and the host-adaptive
    // speedup rule (see `run_experiments`) held.
    gate(PAR, "e15_parallel", "determinism_ok", True),
    gate(PAR, "e15_parallel", "speedup_ok", True),
    // E16: the DES and the TCP transport produce the same run.
    gate(NET, "e16_net", "conformance.matched", True),
    ]
};

/// The repository root at or above `start`: the nearest directory whose
/// `Cargo.toml` lists `crates/bench` as a workspace member. The
/// benchmark's own workspace (`perfbench/`) does not list it, so a run
/// started there still resolves to the repository.
#[must_use]
pub fn repo_root_from(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.contains("\"crates/bench\""))
        })
        .map(Path::to_path_buf)
}

/// A file at the repository root, found from the current directory (so
/// a relocated checkout writes into itself), with the build-time
/// location as fallback.
#[must_use]
pub fn repo_file(name: &str) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|dir| repo_root_from(&dir))
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .join(name)
}
