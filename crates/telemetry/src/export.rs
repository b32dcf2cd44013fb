//! Export helpers: RFC 4180 CSV field escaping and histogram JSON.

use crate::json::JsonValue;

/// Escapes one CSV field per RFC 4180: a field containing a comma,
/// double quote, or line break is wrapped in double quotes with embedded
/// quotes doubled; anything else passes through unchanged (so plain
/// numeric and label fields stay byte-identical to the unescaped form).
pub fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains(['"', ',', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        std::borrow::Cow::Owned(out)
    } else {
        std::borrow::Cow::Borrowed(field)
    }
}

/// One histogram as a JSON object: exact moments (`count`/`mean`/`min`/
/// `max`), the binned shape (`bins`/`underflow`/`overflow`), and
/// reconstructed `p50`/`p95`/`p99` percentile summaries (see
/// [`crate::stats::Histogram::percentile`] for accuracy bounds). Shared
/// by [`crate::ShardSink::to_json`] and by downstream latency exports
/// such as the `ctjam-serve` metrics snapshot.
pub fn histogram_json(h: &crate::stats::Histogram) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("count", h.count())
        .set("mean", h.mean())
        .set("min", h.min())
        .set("max", h.max())
        .set(
            "bins",
            JsonValue::Arr(h.edges().map(|(_, c)| JsonValue::Num(c as f64)).collect()),
        )
        .set("underflow", h.underflow())
        .set("overflow", h.overflow())
        .set("p50", h.p50())
        .set("p95", h.p95())
        .set("p99", h.p99());
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Minimal RFC-4180 reader for the round-trip test: splits one
    /// record's fields, honoring quoted fields and doubled quotes.
    fn parse_csv_record(record: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = record.chars().peekable();
        let mut in_quotes = false;
        while let Some(ch) = chars.next() {
            match ch {
                '"' if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '"' if field.is_empty() => in_quotes = true,
                ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
                _ => field.push(ch),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn hostile_strings_round_trip_through_csv_escaping() {
        let hostile = [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "line\nbreak",
            "cr\rlf\n mix",
            "\",\"everything\"\n,",
            "",
        ];
        for original in hostile {
            let escaped = csv_field(original);
            // One escaped field + a plain neighbor must parse back to
            // exactly the original two fields.
            let record = format!("{escaped},tail");
            let fields = parse_csv_record(&record);
            assert_eq!(fields, vec![original.to_string(), "tail".to_string()]);
        }
    }

    #[test]
    fn plain_fields_are_not_quoted() {
        // Benign labels and numbers must stay byte-identical so existing
        // downstream readers of the figure CSVs keep working.
        assert_eq!(csv_field("hopped"), "hopped");
        assert_eq!(csv_field("-1.5"), "-1.5");
    }

    #[test]
    fn histogram_json_carries_percentile_summaries() {
        let mut h = crate::stats::Histogram::new("h", 0.0, 100.0, 100);
        for v in 1..=100 {
            h.record(v as f64);
        }
        let obj = histogram_json(&h);
        for (key, exact) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            match obj.get(key) {
                Some(JsonValue::Num(v)) => {
                    assert!((v - exact).abs() <= 1.0, "{key}: got {v}, want ~{exact}")
                }
                other => panic!("{key} missing or non-numeric: {other:?}"),
            }
        }
        // Empty histogram percentiles are NaN → serialized as null, so
        // the export stays strictly valid JSON.
        let empty = histogram_json(&crate::stats::Histogram::new("e", 0.0, 1.0, 2));
        assert!(empty.to_string_compact().contains("\"p50\":null"));
    }
}
