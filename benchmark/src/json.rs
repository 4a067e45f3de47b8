//! JSON for result objects and result sets: the figure benches' `Json` value
//! (`scanshare_bench::json`, writer and parser) plus what it lacks here — a
//! one-line form, because the contract wants the result object on the last
//! line of standard output.

pub use scanshare_bench::json::Json;

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The items of an array.
pub fn items(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// `value` on one line. The pretty form breaks lines only between tokens
/// (strings escape their newlines), so dropping the line breaks and the
/// indentation leaves the same document. Floats keep Rust's shortest
/// round-trip digits, so every measured digit survives.
pub fn line(value: &Json) -> String {
    value.to_pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_form_round_trips() {
        let value = obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(128.0)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.25e-7)),
            ("name", Json::from("  a \"quoted\"\\ line\n  break\ttab é")),
            ("none", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::Num(-3.0), obj([("k", Json::Arr(vec![]))])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = line(&value);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text).unwrap(), value);
        assert_eq!(
            Json::parse(&line(&Json::Num(1.2034567890123))).unwrap(),
            Json::Num(1.2034567890123)
        );
        // Whole numbers print without a fraction, as the contract's
        // `attempted`/`failed` need.
        assert_eq!(line(&Json::Num(1000.0)), "1000");
        assert_eq!(items(&value), None);
        assert_eq!(
            items(value.get("nested").unwrap()).map(<[Json]>::len),
            Some(2)
        );
    }
}
