//! Output checks on results documents.
//!
//! A document passes when it parses back under `swim_report`'s schema
//! and records no faulted run. Documents are compared by their result
//! bytes: the JSON with the provenance fields that legitimately differ
//! between runs (`wall_time_s`, `simd`, `tuning`) blanked out.

use swim_report::schema::{ResultsDoc, TuningDoc};

use crate::Report;

/// The document's JSON with provenance blanked out.
pub fn result_bytes(doc: &ResultsDoc) -> String {
    let mut doc = doc.clone();
    doc.wall_time_s = 0.0;
    doc.simd = String::new();
    doc.tuning = TuningDoc {
        mode: String::new(),
        gemm_block_cols: 0,
        gemm_min_flops: 0,
        im2col_cap_elems: 0,
        choices: Vec::new(),
    };
    doc.to_json()
}

/// 64-bit FNV-1a digest, printed as hex.
pub fn digest(bytes: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Checks that `json` parses as a results document with zero faults;
/// returns the parsed document when it does.
pub fn parse_checked(json: &str, what: &str, report: &mut Report) -> Option<ResultsDoc> {
    match ResultsDoc::parse_str(json) {
        Ok(doc) => {
            let faults = doc.faults.len();
            report.check(faults == 0, || format!("{what}: {faults} faulted run(s)"));
            Some(doc)
        }
        Err(e) => {
            report.check(false, || format!("{what}: does not parse: {}", e.0));
            None
        }
    }
}

/// Checks a document round-trips through the schema with zero faults
/// and that its result bytes equal `reference` (adopting them as the
/// reference when there is none yet).
pub fn check_against(
    doc: &ResultsDoc,
    what: &str,
    reference: &mut Option<String>,
    report: &mut Report,
) {
    if parse_checked(&doc.to_json(), what, report).is_none() {
        return;
    }
    let bytes = result_bytes(doc);
    match reference {
        None => *reference = Some(bytes),
        Some(expected) => report.check(*expected == bytes, || {
            format!("{what}: result bytes differ from the first run")
        }),
    }
}
