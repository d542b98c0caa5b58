//! Rendering expressions and results back to SQL-ish text.
//!
//! `expr_to_sql` is used to name unaliased projection columns (the way
//! SQLite names them after their source text) and in debugging output.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::exec::Relation;
use crate::value::Value;

/// Render an expression as SQL text.
pub fn expr_to_sql(e: &Expr) -> String {
    match e {
        Expr::Literal(Value::Null) => "NULL".into(),
        Expr::Literal(Value::Text(s)) => format!("'{}'", s.replace('\'', "''")),
        Expr::Literal(v) => v.render(),
        Expr::Column { table: Some(t), name } => format!("{t}.{name}"),
        Expr::Column { table: None, name } => name.clone(),
        // Executor-internal bound references; only visible in debug output.
        Expr::BoundColumn(i) => format!("#{i}"),
        Expr::Prefetched { call, .. } => expr_to_sql(call),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("-{}", expr_to_sql(expr)),
            UnaryOp::Not => format!("NOT {}", expr_to_sql(expr)),
        },
        Expr::Binary { op, left, right } => {
            format!("{} {} {}", expr_to_sql(left), binop_str(*op), expr_to_sql(right))
        }
        Expr::Function { name, args, distinct, star } => {
            if *star {
                format!("{name}(*)")
            } else {
                let args: Vec<String> = args.iter().map(expr_to_sql).collect();
                let d = if *distinct { "DISTINCT " } else { "" };
                format!("{name}({d}{})", args.join(", "))
            }
        }
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Like { expr, pattern, negated, glob } => format!(
            "{} {}{} {}",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" },
            if *glob { "GLOB" } else { "LIKE" },
            expr_to_sql(pattern)
        ),
        Expr::Between { expr, low, high, negated } => format!(
            "{} {}BETWEEN {} AND {}",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" },
            expr_to_sql(low),
            expr_to_sql(high)
        ),
        Expr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(expr_to_sql).collect();
            format!(
                "{} {}IN ({})",
                expr_to_sql(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::InSubquery { expr, negated, .. } => format!(
            "{} {}IN (SELECT ...)",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Exists { negated, .. } => {
            format!("{}EXISTS (SELECT ...)", if *negated { "NOT " } else { "" })
        }
        Expr::ScalarSubquery(_) => "(SELECT ...)".into(),
        Expr::Case { .. } => "CASE ... END".into(),
        Expr::Cast { expr, type_name } => {
            format!("CAST({} AS {type_name})", expr_to_sql(expr))
        }
    }
}

fn binop_str(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "+",
        BinaryOp::Sub => "-",
        BinaryOp::Mul => "*",
        BinaryOp::Div => "/",
        BinaryOp::Rem => "%",
        BinaryOp::Eq => "=",
        BinaryOp::NotEq => "<>",
        BinaryOp::Lt => "<",
        BinaryOp::LtEq => "<=",
        BinaryOp::Gt => ">",
        BinaryOp::GtEq => ">=",
        BinaryOp::And => "AND",
        BinaryOp::Or => "OR",
        BinaryOp::Concat => "||",
    }
}

/// Format a relation as an aligned text table (for examples and debugging).
pub fn format_table(rel: &Relation) -> String {
    let headers = rel.column_names();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, v)| {
                    let s = if v.is_null() { "NULL".to_string() } else { v.render() };
                    if i < widths.len() {
                        widths[i] = widths[i].max(s.len());
                    }
                    s
                })
                .collect()
        })
        .collect();
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let row: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&row.join(" | "));
        out.push('\n');
    };
    line(&mut out, &headers);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &sep);
    for row in &rendered {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    #[test]
    fn round_trips_common_shapes() {
        for sql in [
            "a + b * c",
            "t.x = 1",
            "name LIKE '%man%'",
            "x BETWEEN 1 AND 5",
            "COUNT(*)",
            "COUNT(DISTINCT x)",
            "x IS NOT NULL",
            "CAST(x AS REAL)",
        ] {
            let e = parse_expression(sql).unwrap();
            let rendered = expr_to_sql(&e);
            // Re-parse of the rendering must produce the same AST.
            let e2 = parse_expression(&rendered).unwrap();
            assert_eq!(e, e2, "{sql} -> {rendered}");
        }
    }

    #[test]
    fn string_literals_escape() {
        let e = parse_expression("'it''s'").unwrap();
        assert_eq!(expr_to_sql(&e), "'it''s'");
    }

    #[test]
    fn format_table_aligns() {
        use crate::exec::Relation;
        use crate::plan::RelSchema;
        let rel = Relation {
            schema: RelSchema::qualified("t", vec!["name".to_string(), "n".to_string()]),
            rows: vec![
                vec!["Spider-Man".into(), 1.into()].into(),
                vec![crate::value::Value::Null, 22.into()].into(),
            ],
        };
        let s = format_table(&rel);
        assert!(s.contains("Spider-Man"));
        assert!(s.contains("NULL"));
        assert!(s.lines().count() == 4);
    }
}
