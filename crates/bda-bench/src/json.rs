//! Minimal JSON parsing, rendering and BENCH-file shape validation.
//!
//! `vendor/serde_json` is an empty facade in this workspace, so the perf
//! tooling carries its own recursive-descent parser and the one writer,
//! [`render`], that every BENCH-writing bench goes through. The parser
//! covers the full JSON grammar; neither tries to be fast — BENCH files
//! are a few hundred bytes.
//!
//! Every `BENCH_*.json` at the repo root must satisfy [`validate_bench`]:
//! a top-level object with a `"bench"` string, a `"host_cores"` number and
//! a non-empty `"results"` array of flat objects whose values are numbers
//! or strings. The optional `"kernels"` array (cycle_scaling's per-kernel
//! breakdown) follows the same row rules. CI's bench-trajectory step runs
//! this check over every committed BENCH file.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A parsed JSON value. Object keys keep insertion order via the side
/// vector in [`Value::Obj`]; lookup is by linear scan (objects are tiny).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(bda_num::cast::f64_of(n))
    }
}

/// An object with `fields` in the given order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// `x` rounded to `decimals` places: BENCH figures carry a fixed
/// precision, not the timer's noise digits.
pub fn fixed(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Num((x * scale).round() / scale)
}

/// Render `value` as a BENCH file: one field or element per line with
/// two-space indentation, except that an object or array of scalars stays
/// on one line (so each results row is one line). Numbers print in their
/// shortest exact form, so [`parse`] gets the same value back; non-finite
/// numbers, which JSON cannot carry, render as `null`.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    let items: Vec<(Option<&str>, &Value)> = match value {
        Value::Arr(items) => items.iter().map(|v| (None, v)).collect(),
        Value::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        Value::Str(s) => return write_string(out, s),
        Value::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
        Value::Bool(b) => return out.push_str(&b.to_string()),
        Value::Num(_) | Value::Null => return out.push_str("null"),
    };
    let (open, close) = match value {
        Value::Arr(_) => ('[', ']'),
        _ => ('{', '}'),
    };
    let flat = (items.iter()).all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let end = if flat {
        " ".to_string()
    } else {
        format!("\n{}", " ".repeat(indent))
    };
    out.push(open);
    for (i, (key, v)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { "," });
        out.push_str(&end);
        out.push_str(if flat { "" } else { "  " });
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_value(out, v, indent + 2);
    }
    if !items.is_empty() {
        out.push_str(&end);
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => _ = write!(out, "\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        // BENCH files are ASCII; lone surrogates map to the
                        // replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the full scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("empty continuation")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Check one row of a `results`/`kernels` array: a non-empty flat object
/// whose values are finite numbers or strings.
fn validate_row(row: &Value, what: &str, i: usize) -> Result<(), String> {
    let fields = row
        .as_object()
        .ok_or_else(|| format!("{what}[{i}] is not an object"))?;
    if fields.is_empty() {
        return Err(format!("{what}[{i}] is empty"));
    }
    for (k, v) in fields {
        match v {
            Value::Num(x) if x.is_finite() => {}
            Value::Num(_) => return Err(format!("{what}[{i}].{k} is not finite")),
            Value::Str(_) => {}
            _ => return Err(format!("{what}[{i}].{k} must be a number or string")),
        }
    }
    Ok(())
}

/// Validate the committed BENCH-file shape (see module docs).
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    doc.as_object().ok_or("top level is not an object")?;
    doc.get("bench")
        .and_then(Value::as_str)
        .ok_or("missing string field \"bench\"")?;
    doc.get("host_cores")
        .and_then(Value::as_f64)
        .ok_or("missing numeric field \"host_cores\"")?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("missing array field \"results\"")?;
    if results.is_empty() {
        return Err("\"results\" is empty".to_string());
    }
    for (i, row) in results.iter().enumerate() {
        validate_row(row, "results", i)?;
    }
    if let Some(kernels) = doc.get("kernels") {
        let kernels = kernels.as_array().ok_or("\"kernels\" is not an array")?;
        for (i, row) in kernels.iter().enumerate() {
            validate_row(row, "kernels", i)?;
            row.get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("kernels[{i}] missing string \"name\""))?;
        }
    }
    Ok(())
}

/// Flatten a validated BENCH document into `metric name -> value` pairs for
/// the trajectory table. Each results row is identified by its string
/// fields plus its first numeric field (e.g. `threads=1`, or
/// `transport=file,strip_len=256`); the remaining numeric fields become
/// metrics `key[id]`. Kernel rows use their `name` as the identifier.
pub fn flatten_metrics(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(results) = doc.get("results").and_then(Value::as_array) {
        for row in results {
            let Some(fields) = row.as_object() else {
                continue;
            };
            let mut id_parts: Vec<String> = Vec::new();
            let mut metrics: Vec<(&str, f64)> = Vec::new();
            let mut first_num_taken = false;
            for (k, v) in fields {
                match v {
                    Value::Str(s) => id_parts.push(format!("{k}={s}")),
                    Value::Num(x) if !first_num_taken => {
                        first_num_taken = true;
                        // Integral identifiers read as `threads=4`, not 4.0.
                        if x.fract() == 0.0 {
                            id_parts.push(format!("{k}={}", *x as i64));
                        } else {
                            id_parts.push(format!("{k}={x}"));
                        }
                    }
                    Value::Num(x) => metrics.push((k, *x)),
                    _ => {}
                }
            }
            let id = id_parts.join(",");
            for (k, x) in metrics {
                out.insert(format!("{k}[{id}]"), x);
            }
        }
    }
    if let Some(kernels) = doc.get("kernels").and_then(Value::as_array) {
        for row in kernels {
            let Some(name) = row.get("name").and_then(Value::as_str) else {
                continue;
            };
            for (k, v) in row.as_object().into_iter().flatten() {
                if let Value::Num(x) = v {
                    out.insert(format!("{k}[{name}]"), *x);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_bench_shape() {
        let text = r#"{
  "bench": "cycle_scaling",
  "config": "OsseConfig::reduced(24, 12, 16, 3, 4)",
  "host_cores": 1,
  "cycles_per_point": 4,
  "results": [
    { "threads": 1, "mean_cycle_s": 2.017157, "speedup": 1.0 },
    { "threads": 4, "mean_cycle_s": 2.906491, "speedup": 0.694 }
  ],
  "kernels": [
    { "name": "eigensolve", "mean_s_per_cycle": 0.12, "calls_per_cycle": 3456.0 }
  ]
}"#;
        let doc = parse(text).expect("parse");
        validate_bench(&doc).expect("valid");
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("cycle_scaling"));
        assert_eq!(
            doc.get("results").unwrap().as_array().unwrap()[1]
                .get("mean_cycle_s")
                .unwrap()
                .as_f64(),
            Some(2.906491)
        );
        let flat = flatten_metrics(&doc);
        assert_eq!(flat.get("mean_cycle_s[threads=1]"), Some(&2.017157));
        assert_eq!(flat.get("speedup[threads=4]"), Some(&0.694));
        assert_eq!(flat.get("mean_s_per_cycle[eigensolve]"), Some(&0.12));
    }

    #[test]
    fn flattens_string_identified_rows() {
        let text = r#"{
  "bench": "halo_rtt",
  "host_cores": 1,
  "results": [
    { "transport": "socket", "strip_len": 256, "mean_ms": 0.132 }
  ]
}"#;
        let doc = parse(text).expect("parse");
        validate_bench(&doc).expect("valid");
        let flat = flatten_metrics(&doc);
        assert_eq!(
            flat.get("mean_ms[transport=socket,strip_len=256]"),
            Some(&0.132)
        );
    }

    #[test]
    fn rejects_malformed_shapes() {
        let missing_results = r#"{ "bench": "x", "host_cores": 1 }"#;
        assert!(validate_bench(&parse(missing_results).unwrap()).is_err());

        let empty_results = r#"{ "bench": "x", "host_cores": 1, "results": [] }"#;
        assert!(validate_bench(&parse(empty_results).unwrap()).is_err());

        let bad_row = r#"{ "bench": "x", "host_cores": 1, "results": [ { "a": [] } ] }"#;
        assert!(validate_bench(&parse(bad_row).unwrap()).is_err());

        let unnamed_kernel = r#"{ "bench": "x", "host_cores": 1, "results": [ { "a": 1 } ], "kernels": [ { "mean_s_per_cycle": 0.1 } ] }"#;
        assert!(validate_bench(&parse(unnamed_kernel).unwrap()).is_err());
    }

    #[test]
    fn every_committed_bench_file_survives_render() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect(name);
            let again = parse(&render(&doc)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(again, doc, "{name}");
            validate_bench(&again).unwrap_or_else(|e| panic!("{name}: {e}"));
            seen += 1;
        }
        assert!(seen > 0, "no BENCH_*.json under {root}");
    }

    #[test]
    fn render_keeps_rows_on_one_line_and_escapes_strings() {
        let doc = obj([
            ("bench", "k\"q\\\n".into()),
            ("host_cores", 4.into()),
            ("ok", Value::Bool(true)),
            ("gone", Value::Num(f64::NAN)),
            ("empty", Value::Arr(vec![])),
            (
                "results",
                Value::Arr(vec![obj([
                    ("threads", 1.into()),
                    ("s", fixed(1.2345678, 4)),
                ])]),
            ),
        ]);
        let text = render(&doc);
        assert_eq!(
            text,
            "{\n  \"bench\": \"k\\\"q\\\\\\n\",\n  \"host_cores\": 4,\n  \"ok\": true,\n  \
             \"gone\": null,\n  \"empty\": [],\n  \"results\": [\n    \
             { \"threads\": 1, \"s\": 1.2346 }\n  ]\n}\n"
        );
        assert_eq!(parse(&text).unwrap().get("bench"), doc.get("bench"));
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let doc = parse(r#"{ "a\n\"b\"": [1, -2.5e3, true, false, null, "A"] }"#).unwrap();
        let arr = doc.get("a\n\"b\"").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[5].as_str(), Some("A"));

        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
