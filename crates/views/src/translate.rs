//! Translating window edits on view rows into base rows.
//!
//! A window shows a view row; the user edits a field and commits. The
//! translation uses a keyed view's [`Writes`] to locate the base row (by
//! rid, carried alongside every fetched view row) and compute its new
//! image, reading the view's restriction and targets as the analysis
//! resolved them over the base row; performing the write is the caller's
//! job. The "check option" is on by default: a write that would make the
//! row fall outside the view's restriction is rejected with
//! [`ViewError::EscapesView`] — otherwise a user could edit a row and watch
//! it silently vanish from the window.

use crate::error::{ViewError, ViewResult};
use crate::keyed::{Keyed, Writes};
use wow_rel::db::Database;
use wow_rel::eval::eval_pred;
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

/// The writes of `keyed`: a keyed view without them refuses every write.
fn writes(keyed: &Keyed) -> ViewResult<&Writes> {
    keyed
        .writes
        .as_ref()
        .ok_or_else(|| ViewError::NotUpdatable {
            view: keyed.view.clone(),
            reasons: vec!["its analysis found no writes".into()],
        })
}

/// Fetch the view's rows together with their base rids, in base-scan order.
///
/// This is the access path a Snapshot over an updatable view refills by:
/// each returned tuple is shaped like the view, and the rid addresses the
/// base row behind it.
pub fn view_rows_with_rids(db: &mut Database, keyed: &Keyed) -> ViewResult<Vec<(Rid, Tuple)>> {
    writes(keyed)?;
    let id = db.catalog().table(&keyed.table)?.id;
    let mut out = Vec::new();
    for (rid, base) in db.scan_table_raw(id)? {
        out.extend(keyed.view_row(db, base)?.map(|row| (rid, row)));
    }
    Ok(out)
}

fn column_name(keyed: &Keyed, vcol: usize) -> String {
    match keyed.schema.columns.get(vcol) {
        Some(c) => c.name.clone(),
        None => format!("#{vcol}"),
    }
}

/// Whether base row `base` satisfies the view's restriction.
fn member(keyed: &Keyed, base: &Tuple) -> ViewResult<bool> {
    match &keyed.pred {
        Some(p) => Ok(eval_pred(p, base)?),
        None => Ok(true),
    }
}

/// Refuse `new_vals` under [`CheckOption::Checked`] when it leaves the view.
fn check(keyed: &Keyed, new_vals: &[Value], check: CheckOption) -> ViewResult<()> {
    if check == CheckOption::Checked && !member(keyed, &Tuple::new(new_vals.to_vec()))? {
        return Err(ViewError::EscapesView {
            view: keyed.view.clone(),
        });
    }
    Ok(())
}

/// The base row to write at `rid` for an update of the view row behind it.
/// `None` if the base row no longer exists (deleted by a concurrent window).
pub fn update_through_view(
    db: &mut Database,
    keyed: &Keyed,
    rid: Rid,
    assigns: &[(usize, Value)],
    check_option: CheckOption,
) -> ViewResult<Option<Vec<Value>>> {
    let writes = writes(keyed)?;
    let id = db.catalog().table(&keyed.table)?.id;
    let Some(base) = db.get_row(id, rid)? else {
        return Ok(None);
    };
    let mut new_vals = base.values;
    for (vcol, val) in assigns {
        let Some(Some(bcol)) = writes.column_map.get(*vcol) else {
            return Err(ViewError::NotWritable {
                column: column_name(keyed, *vcol),
            });
        };
        new_vals[*bcol] = val.clone();
    }
    check(keyed, &new_vals, check_option)?;
    Ok(Some(new_vals))
}

/// The base row to insert for a new view row. View values map onto base
/// columns; unprojected base columns become NULL (and must therefore be
/// nullable).
pub fn insert_through_view(
    db: &Database,
    keyed: &Keyed,
    view_vals: &[Value],
    check_option: CheckOption,
) -> ViewResult<Vec<Value>> {
    let writes = writes(keyed)?;
    let width = db.catalog().table(&keyed.table)?.schema.len();
    if view_vals.len() != writes.column_map.len() {
        return Err(ViewError::Rel(wow_rel::RelError::TypeMismatch {
            expected: format!("{} view columns", writes.column_map.len()),
            got: format!("{} values", view_vals.len()),
        }));
    }
    let mut base_vals = vec![Value::Null; width];
    for (vcol, val) in view_vals.iter().enumerate() {
        match writes.column_map[vcol] {
            Some(bcol) => base_vals[bcol] = val.clone(),
            None if val.is_null() => {} // computed column left blank: fine
            None => {
                return Err(ViewError::NotWritable {
                    column: column_name(keyed, vcol),
                })
            }
        }
    }
    check(keyed, &base_vals, check_option)?;
    Ok(base_vals)
}
