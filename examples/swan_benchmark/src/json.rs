//! The few lines of JSON the benchmark emits, written by hand: no serde
//! is vendored in this repository.

/// A JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has. JSON has no NaN
/// or infinity; callers check `is_finite` first and fail the run.
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `{"k": v, ...}` from already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn self_check() -> Result<(), String> {
    let got = string("a\"b\\c\nd\te\u{1}é");
    let want = "\"a\\\"b\\\\c\\nd\\te\\u0001é\"";
    if got != want {
        return Err(format!("json: escaping gave {got}, expected {want}"));
    }
    for (v, want) in [
        (3.0, "3"),
        (0.25, "0.25"),
        (-2.0, "-2"),
        (1.2034, "1.2034"),
        (0.000_000_12, "0.00000012"),
    ] {
        if number(v) != want {
            return Err(format!(
                "json: number({v}) = {}, expected {want}",
                number(v)
            ));
        }
    }
    let got = object(&[("a", number(1.0)), ("b\"", string("x"))]);
    if got != "{\"a\": 1, \"b\\\"\": \"x\"}" {
        return Err(format!("json: object gave {got}"));
    }
    Ok(())
}
