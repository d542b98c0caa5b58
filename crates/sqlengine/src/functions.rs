//! Built-in scalar functions, aggregate descriptors, and the scalar-UDF
//! registry that hybrid-query LLM functions plug into.
//!
//! UDFs implement [`ScalarUdf`] and are registered on the
//! [`Database`](crate::db::Database); they may keep interior-mutable state
//! (an LLM client, a cache, usage counters), which is why calls take `&self`
//! and registration stores an `Arc`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// A scalar user-defined function.
///
/// Implementations must be deterministic per input within a single query
/// execution (the executor may evaluate a row expression more than once).
pub trait ScalarUdf: Send + Sync {
    /// Function name as referenced from SQL (matched case-insensitively).
    fn name(&self) -> &str;
    /// Invoke on one row's argument values.
    fn invoke(&self, args: &[Value]) -> Result<Value>;
    /// Invoke on a batch of argument tuples, returning one value per tuple
    /// in input order.
    ///
    /// The executor calls this once per operator input batch with the
    /// *distinct* argument tuples of an expensive call site, so an
    /// implementation backed by a remote model can chunk the tuples into
    /// multi-key prompts and fan them out in parallel instead of paying
    /// one round-trip per row. The default simply loops [`invoke`]
    /// (correct for any UDF, batched for none).
    ///
    /// [`invoke`]: ScalarUdf::invoke
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<Value>> {
        rows.iter().map(|args| self.invoke(args)).collect()
    }
    /// Arity check; `None` means variadic. Default: variadic.
    fn arity(&self) -> Option<usize> {
        None
    }
    /// A cost hint for the optimizer: expensive functions (e.g. LLM calls)
    /// are worth avoiding via predicate pushdown. Plain functions are cheap.
    fn is_expensive(&self) -> bool {
        false
    }
}

/// Registry of scalar UDFs; cheap to clone (shared map behind `Arc`s).
#[derive(Default, Clone)]
pub struct UdfRegistry {
    funcs: HashMap<String, Arc<dyn ScalarUdf>>,
}

impl UdfRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a UDF; replaces any previous function with the same name.
    pub fn register(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.funcs.insert(udf.name().to_ascii_lowercase(), udf);
    }

    /// Look up a UDF by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn ScalarUdf>> {
        self.get_registered(name).map(|(_, udf)| udf)
    }

    /// [`get`](Self::get), with the lowercased name the function is
    /// registered under. A name already in lower case — how `llm_map` is
    /// written in every benchmark statement — is probed as it stands.
    pub fn get_registered(&self, name: &str) -> Option<(&str, &Arc<dyn ScalarUdf>)> {
        let lower: Cow<'_, str> = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        };
        self.funcs.get_key_value(lower.as_ref()).map(|(k, udf)| (k.as_str(), udf))
    }

    /// Whether `name` refers to a registered expensive function.
    pub fn is_expensive(&self, name: &str) -> bool {
        self.get(name).is_some_and(|f| f.is_expensive())
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.funcs.keys().map(String::as_str)
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdfRegistry").field("functions", &self.funcs.len()).finish()
    }
}

/// Names of the supported aggregate functions.
pub const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"];

/// True iff `name` (any case) is an aggregate function.
pub fn is_aggregate(name: &str) -> bool {
    AGGREGATES.iter().any(|a| a.eq_ignore_ascii_case(name))
}

/// Bytes in the longest built-in scalar function name (`SUBSTRING`).
const LONGEST_BUILTIN: usize = 9;

/// Evaluate a built-in scalar function. Returns `None` if the name is not a
/// built-in (the caller then consults the UDF registry).
pub fn eval_builtin(name: &str, args: &[Value]) -> Option<Result<Value>> {
    // Upper-case into a stack buffer: this runs for every scalar call of
    // every row. A name longer than the buffer is no built-in.
    let mut buf = [0u8; LONGEST_BUILTIN];
    let upper = buf.get_mut(..name.len())?;
    upper.copy_from_slice(name.as_bytes());
    upper.make_ascii_uppercase();
    let upper = std::str::from_utf8(upper).ok()?;
    let r = match upper {
        "UPPER" => unary_text(upper, args, |s| s.to_uppercase()),
        "LOWER" => unary_text(upper, args, |s| s.to_lowercase()),
        "LENGTH" => match require(upper, args, 1) {
            Err(e) => Err(e),
            Ok(()) => Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Integer(s.chars().count() as i64),
                other => Value::Integer(other.render().chars().count() as i64),
            }),
        },
        "TRIM" => unary_text(upper, args, |s| s.trim().to_string()),
        "LTRIM" => unary_text(upper, args, |s| s.trim_start().to_string()),
        "RTRIM" => unary_text(upper, args, |s| s.trim_end().to_string()),
        "ABS" => match require(upper, args, 1) {
            Err(e) => Err(e),
            Ok(()) => match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => i
                    .checked_abs()
                    .map(Value::Integer)
                    .ok_or_else(|| Error::Arithmetic("ABS overflow".into())),
                Value::Real(r) => Ok(Value::Real(r.abs())),
                Value::Text(s) => match crate::value::parse_text_f64(s) {
                    Some(v) => Ok(Value::Real(v.abs())),
                    None => Ok(Value::Real(0.0)),
                },
            },
        },
        "ROUND" => round(args),
        "COALESCE" => Ok(args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null)),
        "IFNULL" => match require(upper, args, 2) {
            Err(e) => Err(e),
            Ok(()) => Ok(if args[0].is_null() { args[1].clone() } else { args[0].clone() }),
        },
        "NULLIF" => match require(upper, args, 2) {
            Err(e) => Err(e),
            Ok(()) => Ok(if args[0].sql_eq(&args[1]) == Some(true) {
                Value::Null
            } else {
                args[0].clone()
            }),
        },
        "SUBSTR" | "SUBSTRING" => substr(args),
        "INSTR" => match require(upper, args, 2) {
            Err(e) => Err(e),
            Ok(()) => {
                if args[0].is_null() || args[1].is_null() {
                    Ok(Value::Null)
                } else {
                    let hay = args[0].render();
                    let needle = args[1].render();
                    let pos = if needle.is_empty() {
                        if hay.is_empty() { 0 } else { 1 }
                    } else {
                        hay.find(&needle).map(|b| hay[..b].chars().count() + 1).unwrap_or(0)
                    };
                    Ok(Value::Integer(pos as i64))
                }
            }
        },
        "REPLACE" => match require(upper, args, 3) {
            Err(e) => Err(e),
            Ok(()) => {
                if args.iter().any(Value::is_null) {
                    Ok(Value::Null)
                } else {
                    let s = args[0].render();
                    let from = args[1].render();
                    if from.is_empty() {
                        Ok(Value::text(s))
                    } else {
                        Ok(Value::text(s.replace(&from, &args[2].render())))
                    }
                }
            }
        },
        "MIN" | "MAX" if args.len() >= 2 => {
            // Scalar (multi-argument) MIN/MAX, as in SQLite.
            if args.iter().any(Value::is_null) {
                return Some(Ok(Value::Null));
            }
            let mut best = args[0].clone();
            for v in &args[1..] {
                let take = if upper == "MIN" {
                    v.sort_cmp(&best) == std::cmp::Ordering::Less
                } else {
                    v.sort_cmp(&best) == std::cmp::Ordering::Greater
                };
                if take {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "TYPEOF" => match require(upper, args, 1) {
            Err(e) => Err(e),
            Ok(()) => Ok(Value::text(args[0].type_name())),
        },
        "PRINTF" | "FORMAT" => printf(args),
        "CONCAT" => Ok(Value::text(args.iter().map(Value::render).collect::<Vec<_>>().join(""))),
        _ => return None,
    };
    Some(r)
}

fn require(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(Error::Semantic(format!("{name} expects {n} argument(s), got {}", args.len())))
    }
}

fn unary_text(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    require(name, args, 1)?;
    Ok(match &args[0] {
        Value::Null => Value::Null,
        other => Value::text(f(&other.render())),
    })
}

fn round(args: &[Value]) -> Result<Value> {
    if args.is_empty() || args.len() > 2 {
        return Err(Error::Semantic("ROUND expects 1 or 2 arguments".into()));
    }
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let x = args[0]
        .as_f64()
        .ok_or_else(|| Error::Type(format!("ROUND on non-numeric {}", args[0])))?;
    let digits = if args.len() == 2 {
        if args[1].is_null() {
            return Ok(Value::Null);
        }
        args[1].as_i64().unwrap_or(0).clamp(-15, 15)
    } else {
        0
    };
    let factor = 10f64.powi(digits as i32);
    Ok(Value::Real((x * factor).round() / factor))
}

fn substr(args: &[Value]) -> Result<Value> {
    if args.len() < 2 || args.len() > 3 {
        return Err(Error::Semantic("SUBSTR expects 2 or 3 arguments".into()));
    }
    if args[0].is_null() || args[1].is_null() {
        return Ok(Value::Null);
    }
    let s: Vec<char> = args[0].render().chars().collect();
    let n = s.len() as i64;
    let mut start = args[1]
        .as_i64()
        .ok_or_else(|| Error::Type("SUBSTR start must be an integer".into()))?;
    let len = match args.get(2) {
        None => i64::MAX,
        Some(v) if v.is_null() => return Ok(Value::Null),
        Some(v) => v.as_i64().ok_or_else(|| Error::Type("SUBSTR length must be an integer".into()))?,
    };
    // SQLite: 1-based; 0 behaves like 1; negative counts from the end.
    if start < 0 {
        start = (n + start + 1).max(1);
    } else if start == 0 {
        start = 1;
    }
    if len <= 0 {
        return Ok(Value::text(""));
    }
    let begin = (start - 1).clamp(0, n) as usize;
    let end = ((start - 1).saturating_add(len)).clamp(0, n) as usize;
    Ok(Value::text(s[begin..end.max(begin)].iter().collect::<String>()))
}

/// Tiny printf supporting %s, %d, %f, %.Nf and %% — enough for URL and code
/// formatting in the benchmark generators.
fn printf(args: &[Value]) -> Result<Value> {
    let Some(fmt) = args.first() else {
        return Err(Error::Semantic("PRINTF expects a format string".into()));
    };
    if fmt.is_null() {
        return Ok(Value::Null);
    }
    let fmt = fmt.render();
    let mut out = String::with_capacity(fmt.len());
    let mut arg_i = 1;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let mut spec = String::new();
        loop {
            match chars.next() {
                None => return Err(Error::Semantic("dangling % in PRINTF format".into())),
                Some('%') if spec.is_empty() => {
                    out.push('%');
                    break;
                }
                Some(c2) if "sdif".contains(c2) => {
                    let v = args.get(arg_i).cloned().unwrap_or(Value::Null);
                    arg_i += 1;
                    match c2 {
                        's' => out.push_str(&v.render()),
                        'd' | 'i' => out.push_str(&v.as_i64().unwrap_or(0).to_string()),
                        'f' => {
                            let prec = spec
                                .strip_prefix('.')
                                .and_then(|p| p.parse::<usize>().ok())
                                .unwrap_or(6);
                            out.push_str(&format!("{:.*}", prec, v.as_f64().unwrap_or(0.0)));
                        }
                        _ => unreachable!(),
                    }
                    break;
                }
                Some(c2) if c2.is_ascii_digit() || c2 == '.' => spec.push(c2),
                Some(c2) => {
                    return Err(Error::Semantic(format!("unsupported PRINTF directive %{spec}{c2}")))
                }
            }
        }
    }
    Ok(Value::text(out))
}

/// Evaluate `expr LIKE pattern` with `%` and `_` wildcards
/// (case-insensitive for ASCII, as in SQLite).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn inner(t: &[u8], p: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            b'%' => {
                // Collapse consecutive % for linear behaviour on repeats.
                let p_rest = &p[1..];
                if p_rest.is_empty() {
                    return true;
                }
                (0..=t.len()).any(|i| inner(&t[i..], p_rest))
            }
            b'_' => !t.is_empty() && inner(&t[1..], &p[1..]),
            c => {
                !t.is_empty()
                    && t[0].eq_ignore_ascii_case(&c)
                    && inner(&t[1..], &p[1..])
            }
        }
    }
    inner(text.as_bytes(), pattern.as_bytes())
}

/// Evaluate `expr GLOB pattern` with `*` and `?` wildcards (case-sensitive).
pub fn glob_match(text: &str, pattern: &str) -> bool {
    fn inner(t: &[u8], p: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            b'*' => {
                let p_rest = &p[1..];
                if p_rest.is_empty() {
                    return true;
                }
                (0..=t.len()).any(|i| inner(&t[i..], p_rest))
            }
            b'?' => !t.is_empty() && inner(&t[1..], &p[1..]),
            c => !t.is_empty() && t[0] == c && inner(&t[1..], &p[1..]),
        }
    }
    inner(text.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Value {
        eval_builtin(name, args).unwrap().unwrap()
    }

    #[test]
    fn names_match_in_any_case_up_to_the_longest_builtin() {
        assert_eq!(call("SubString", &["abcdef".into(), 2.into(), 3.into()]), Value::text("bcd"));
        assert_eq!("SUBSTRING".len(), LONGEST_BUILTIN);
        assert!(eval_builtin("substrings", &[]).is_none(), "longer than any built-in");
        assert!(eval_builtin("llm_map", &[]).is_none());
        assert!(eval_builtin("üpper", &["a".into()]).is_none(), "non-ASCII is no built-in");
    }

    #[test]
    fn case_functions() {
        assert_eq!(call("upper", &["abc".into()]), Value::text("ABC"));
        assert_eq!(call("LOWER", &["AbC".into()]), Value::text("abc"));
        assert!(call("UPPER", &[Value::Null]).is_null());
    }

    #[test]
    fn length_counts_chars() {
        assert_eq!(call("LENGTH", &["héro".into()]), Value::Integer(4));
        assert!(call("LENGTH", &[Value::Null]).is_null());
        assert_eq!(call("LENGTH", &[Value::Integer(1234)]), Value::Integer(4));
    }

    #[test]
    fn substr_sqlite_semantics() {
        assert_eq!(call("SUBSTR", &["hello".into(), 2.into()]), Value::text("ello"));
        assert_eq!(call("SUBSTR", &["hello".into(), 2.into(), 3.into()]), Value::text("ell"));
        assert_eq!(call("SUBSTR", &["hello".into(), (-3).into()]), Value::text("llo"));
        assert_eq!(call("SUBSTR", &["hello".into(), 0.into(), 2.into()]), Value::text("he"));
        assert_eq!(call("SUBSTR", &["hello".into(), 10.into()]), Value::text(""));
    }

    #[test]
    fn instr_is_one_based() {
        assert_eq!(call("INSTR", &["superhero".into(), "hero".into()]), Value::Integer(6));
        assert_eq!(call("INSTR", &["abc".into(), "z".into()]), Value::Integer(0));
    }

    #[test]
    fn replace_and_concat() {
        assert_eq!(
            call("REPLACE", &["a-b-c".into(), "-".into(), "+".into()]),
            Value::text("a+b+c")
        );
        assert_eq!(
            call("CONCAT", &["www.".into(), "school".into(), ".edu".into()]),
            Value::text("www.school.edu")
        );
    }

    #[test]
    fn coalesce_ifnull_nullif() {
        assert_eq!(call("COALESCE", &[Value::Null, Value::Null, 3.into()]), Value::Integer(3));
        assert_eq!(call("IFNULL", &[Value::Null, "x".into()]), Value::text("x"));
        assert!(call("NULLIF", &[5.into(), 5.into()]).is_null());
        assert_eq!(call("NULLIF", &[5.into(), 6.into()]), Value::Integer(5));
    }

    #[test]
    fn round_behaviour() {
        assert_eq!(call("ROUND", &[Value::Real(2.567), 2.into()]), Value::Real(2.57));
        assert_eq!(call("ROUND", &[Value::Real(2.5)]), Value::Real(3.0));
        assert!(call("ROUND", &[Value::Null]).is_null());
    }

    #[test]
    fn scalar_min_max_multiarg() {
        assert_eq!(call("MAX", &[1.into(), 9.into(), 4.into()]), Value::Integer(9));
        assert_eq!(call("MIN", &[1.into(), 9.into(), 4.into()]), Value::Integer(1));
        assert!(call("MAX", &[1.into(), Value::Null]).is_null());
    }

    #[test]
    fn printf_formats() {
        assert_eq!(
            call("PRINTF", &["%s-%d".into(), "x".into(), 42.into()]),
            Value::text("x-42")
        );
        assert_eq!(
            call("PRINTF", &["%.2f%%".into(), Value::Real(0.4567)]),
            Value::text("0.46%")
        );
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("Marvel Comics", "Marvel%"));
        assert!(like_match("Marvel Comics", "%comics"));
        assert!(like_match("Spider-Man", "%ider%"));
        assert!(like_match("cat", "c_t"));
        assert!(!like_match("cart", "c_t"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        assert!(like_match("ABC", "abc"), "LIKE is case-insensitive");
    }

    #[test]
    fn glob_wildcards() {
        assert!(glob_match("file.txt", "*.txt"));
        assert!(!glob_match("FILE.TXT", "*.txt"), "GLOB is case-sensitive");
        assert!(glob_match("a1b", "a?b"));
    }

    #[test]
    fn like_pathological_pattern_is_fast() {
        // Consecutive %s should not blow up exponentially.
        let t = "a".repeat(60);
        let p = format!("%{}%", "a".repeat(30));
        assert!(like_match(&t, &p));
    }

    #[test]
    fn udf_registry_roundtrip() {
        struct Echo;
        impl ScalarUdf for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn invoke(&self, args: &[Value]) -> Result<Value> {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            }
            fn is_expensive(&self) -> bool {
                true
            }
        }
        let mut reg = UdfRegistry::new();
        reg.register(Arc::new(Echo));
        assert!(reg.get("ECHO").is_some(), "lookup is case-insensitive");
        assert!(reg.is_expensive("Echo"));
        let v = reg.get("echo").unwrap().invoke(&[7.into()]).unwrap();
        assert_eq!(v, Value::Integer(7));
    }

    #[test]
    fn unknown_builtin_returns_none() {
        assert!(eval_builtin("no_such_fn", &[]).is_none());
    }
}
