//! The benchmark's own checks: the metric catalogue matches
//! `BENCHMARK.json`, and a wrong expected digest fails the run.

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object looking up {key}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn metrics(doc: &Value, list: &str) -> Vec<(String, String)> {
    match field(doc, list) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).to_string(),
                    str_of(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        _ => panic!("{list} is not a list"),
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(metrics(&doc, "end_to_end"), owned(perfbench::END_TO_END));
    assert_eq!(metrics(&doc, "per_layer"), owned(perfbench::PER_LAYER));
}

#[test]
fn wrong_expected_digest_fails_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "office_ckpt",
            "--seed",
            "42",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--expect-digest", "0123456789abcdef"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(1), "a failed check exits 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is the JSON result");
    assert!(matches!(field(&result, "correct"), Value::Bool(false)));
    let (failed, attempted) = match (field(&result, "failed"), field(&result, "attempted")) {
        (Value::UInt(f), Value::UInt(a)) => (*f, *a),
        other => panic!("failed/attempted not unsigned: {other:?}"),
    };
    assert!(
        failed > 0 && failed <= attempted,
        "failed {failed} of {attempted}"
    );
}
