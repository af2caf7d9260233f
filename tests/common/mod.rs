//! Checks shared by the root integration tests.

use inca::obs::json::Value;
use inca::obs::TIMESERIES_SCHEMA;

/// The timeseries-v1 shape checks: the schema key first, one cycle per
/// frame, one entry per frame in every column and one lane per tenant.
/// Returns the parsed document.
pub fn assert_well_formed(text: &str, tenants: usize) -> Value {
    assert!(text.starts_with("{\"schema\":\"inca-obs/timeseries-v1\""), "{text}");
    let doc = Value::parse(text).expect("valid json");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(TIMESERIES_SCHEMA));
    let frames = doc.get("frames").and_then(Value::as_u64).expect("frames") as usize;
    assert_eq!(doc.get("cycles").and_then(Value::as_arr).expect("cycles").len(), frames);
    for (name, column) in doc.get("columns").and_then(Value::as_obj).expect("columns") {
        assert_eq!(column.as_arr().expect("array").len(), frames, "column {name}");
    }
    assert_eq!(doc.get("lanes").and_then(Value::as_arr).expect("lanes").len(), tenants);
    doc
}
