//! Golden-file coverage for the `agl-obs` Chrome trace export.
//!
//! Two claims, checked against `tests/golden/chrome_trace.json`:
//!
//! 1. The export is well-formed JSON — proven by running it through the
//!    strict reader `obs-report` loads traces with (`agl_obs::json`), not
//!    by substring checks.
//! 2. Under the logical clock the export is byte-stable: the golden file
//!    is the exact output, so any formatting or ordering drift in
//!    `TraceSink::to_chrome_json` shows up as a diff here.
//!
//! Regenerate after a deliberate format change with
//! `AGL_UPDATE_GOLDEN=1 cargo test -p agl-obs --test chrome_trace`.

use agl_obs::json::Value;
use agl_obs::Obs;
use std::fs;
use std::path::Path;

/// A small fixed workload exercising nesting, counters, multiple tracks,
/// and out-of-order track creation.
fn sample_trace() -> String {
    let obs = Obs::enabled_logical();
    {
        let mut job = obs.span("driver", "mapreduce.job");
        {
            let mut map = obs.span("map.t1", "map");
            map.counter("records", 128);
        }
        {
            let mut map = obs.span("map.t0", "map");
            map.counter("records", 130);
        }
        let _pull = obs.span("ps.w0", "ps.pull");
        job.counter("bytes", 4096);
    }
    obs.trace().expect("enabled handle").to_chrome_json()
}

#[test]
fn chrome_export_is_wellformed_and_byte_stable() {
    let json = sample_trace();
    Value::parse(&json).expect("chrome export must be well-formed JSON");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\":\"M\""), "thread_name metadata events: {json}");
    assert!(json.contains("\"ph\":\"X\""), "complete events: {json}");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json");
    if std::env::var_os("AGL_UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, &json).expect("write golden");
    }
    let golden = fs::read_to_string(&golden_path)
        .expect("golden file missing — regenerate with AGL_UPDATE_GOLDEN=1 cargo test -p agl-obs --test chrome_trace");
    assert_eq!(
        json, golden,
        "logical-clock chrome export must be byte-stable; if the format change \
         is deliberate, regenerate tests/golden/chrome_trace.json with AGL_UPDATE_GOLDEN=1"
    );
}
