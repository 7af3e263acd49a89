//! Translating window edits on view rows into base rows.
//!
//! A window shows a view row; the user edits a field and commits. The
//! translation uses the [`Updatability`] proof to locate the base row (by
//! rid, carried alongside every fetched view row) and compute its new
//! image; performing the write is the caller's job. The "check option" is
//! on by default: a write that would make the row fall outside the view's
//! restriction is rejected with [`ViewError::EscapesView`] — otherwise a
//! user could edit a row and watch it silently vanish from the window.

use crate::error::{ViewError, ViewResult};
use crate::updatable::Updatability;
use wow_rel::db::Database;
use wow_rel::eval::{eval, eval_pred};
use wow_rel::expr::Expr;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;
use wow_storage::Rid;

/// Behaviour when a write moves a row outside the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckOption {
    /// Reject the write ([`ViewError::EscapesView`]). The default.
    #[default]
    Checked,
    /// Allow it; the row simply leaves the window on refresh.
    Unchecked,
}

/// Fetch the view's rows together with their base rids, in base-scan order.
///
/// This is the access path the browse layer uses for updatable views: each
/// returned tuple is shaped like the view, and the rid addresses the base
/// row behind it.
pub fn view_rows_with_rids(db: &mut Database, upd: &Updatability) -> ViewResult<Vec<(Rid, Tuple)>> {
    let info = db.catalog().table(&upd.base_table)?.clone();
    let schema = info.schema.qualified(&upd.base_alias);
    let pred = match &upd.base_pred {
        Some(p) => Some(p.clone().resolve(&schema)?),
        None => None,
    };
    let targets: Vec<Expr> = upd
        .target_exprs
        .iter()
        .map(|e| e.clone().resolve(&schema))
        .collect::<Result<_, _>>()?;
    let raw = db.scan_table_raw(info.id)?;
    let mut out = Vec::new();
    for (rid, base) in raw {
        let keep = match &pred {
            Some(p) => eval_pred(p, &base)?,
            None => true,
        };
        if !keep {
            continue;
        }
        let mut vals = Vec::with_capacity(targets.len());
        for t in &targets {
            vals.push(eval(t, &base)?);
        }
        out.push((rid, Tuple::new(vals)));
    }
    Ok(out)
}

/// Compute the new base row for an update of `assigns` (view column index →
/// new value) against the current base row. Pure function, exposed for
/// property tests.
pub fn rewrite_base_row(
    upd: &Updatability,
    base: &Tuple,
    assigns: &[(usize, Value)],
) -> ViewResult<Vec<Value>> {
    let mut new_vals = base.values.clone();
    for (vcol, val) in assigns {
        let Some(Some(bcol)) = upd.column_map.get(*vcol) else {
            return Err(ViewError::NotWritable {
                column: upd
                    .column_names
                    .get(*vcol)
                    .cloned()
                    .unwrap_or_else(|| format!("#{vcol}")),
            });
        };
        new_vals[*bcol] = val.clone();
    }
    Ok(new_vals)
}

fn check_membership(db: &Database, upd: &Updatability, new_vals: &[Value]) -> ViewResult<bool> {
    let Some(pred) = &upd.base_pred else {
        return Ok(true);
    };
    let info = db.catalog().table(&upd.base_table)?.clone();
    let schema = info.schema.qualified(&upd.base_alias);
    let resolved = pred.clone().resolve(&schema)?;
    Ok(eval_pred(&resolved, &Tuple::new(new_vals.to_vec()))?)
}

/// The base row to write at `rid` for an update of the view row behind it.
/// `None` if the base row no longer exists (deleted by a concurrent window).
pub fn update_through_view(
    db: &mut Database,
    upd: &Updatability,
    rid: Rid,
    assigns: &[(usize, Value)],
    check: CheckOption,
) -> ViewResult<Option<Vec<Value>>> {
    let info = db.catalog().table(&upd.base_table)?.clone();
    let Some(base) = db.get_row(info.id, rid)? else {
        return Ok(None);
    };
    let new_vals = rewrite_base_row(upd, &base, assigns)?;
    if check == CheckOption::Checked && !check_membership(db, upd, &new_vals)? {
        return Err(ViewError::EscapesView {
            view: upd.view.clone(),
        });
    }
    Ok(Some(new_vals))
}

/// The base row to insert for a new view row. View values map onto base
/// columns; unprojected base columns become NULL (and must therefore be
/// nullable).
pub fn insert_through_view(
    db: &Database,
    upd: &Updatability,
    view_vals: &[Value],
    check: CheckOption,
) -> ViewResult<Vec<Value>> {
    let width = db.catalog().table(&upd.base_table)?.schema.len();
    if view_vals.len() != upd.column_map.len() {
        return Err(ViewError::Rel(wow_rel::RelError::TypeMismatch {
            expected: format!("{} view columns", upd.column_map.len()),
            got: format!("{} values", view_vals.len()),
        }));
    }
    let mut base_vals = vec![Value::Null; width];
    for (vcol, val) in view_vals.iter().enumerate() {
        match upd.column_map[vcol] {
            Some(bcol) => base_vals[bcol] = val.clone(),
            None if val.is_null() => {} // computed column left blank: fine
            None => {
                return Err(ViewError::NotWritable {
                    column: upd.column_names[vcol].clone(),
                })
            }
        }
    }
    if check == CheckOption::Checked && !check_membership(db, upd, &base_vals)? {
        return Err(ViewError::EscapesView {
            view: upd.view.clone(),
        });
    }
    Ok(base_vals)
}
