//! Forms stored *in the database* — the 1983 arrangement — plus ad-hoc
//! browse ordering.
//!
//! A designer tweaks a compiled form (captions, widths, domains, help) and
//! saves it; every later window on that view gets the stored form. Specs
//! live in an ordinary relation, `wow_forms(view TEXT KEY, spec TEXT)`, so
//! they travel with the data, survive via the WAL like everything else,
//! and can even be browsed through a window themselves.

use crate::error::WowResult;
use crate::window_mgr::WinId;
use crate::world::World;
use wow_forms::FormSpec;
use wow_rel::value::Value;
use wow_views::expand::ViewQuery;

/// The relation that holds stored forms.
pub const FORMS_TABLE: &str = "wow_forms";

impl World {
    /// Ensure the forms relation exists.
    fn ensure_forms_table(&mut self) -> WowResult<()> {
        if !self.db().catalog().has_table(FORMS_TABLE) {
            self.db_mut()
                .run("CREATE TABLE wow_forms (view TEXT KEY, spec TEXT NOT NULL)")?;
        }
        Ok(())
    }

    /// Persist a window's current form as the stored form for its view.
    pub fn save_form(&mut self, win: WinId) -> WowResult<()> {
        self.ensure_forms_table()?;
        let (view, encoded) = {
            let w = self.window(win)?;
            (w.view.clone(), w.form.spec.to_stored())
        };
        self.save_form_spec(&view, &encoded)
    }

    /// Persist an explicit spec for a view.
    pub fn save_form_spec(&mut self, view: &str, encoded: &str) -> WowResult<()> {
        self.ensure_forms_table()?;
        // Upsert by key.
        let existing = self
            .db_mut()
            .index_lookup("pk_wow_forms", &[Value::text(view)])?;
        match existing.first() {
            Some(&rid) => {
                self.db_mut().update_rid(
                    FORMS_TABLE,
                    rid,
                    vec![Value::text(view), Value::text(encoded)],
                )?;
            }
            None => {
                self.db_mut()
                    .insert(FORMS_TABLE, vec![Value::text(view), Value::text(encoded)])?;
            }
        }
        Ok(())
    }

    /// Load the stored form for a view, if any. Malformed or stale specs
    /// (wrong field count after a schema change) are ignored by the caller.
    pub fn load_form_spec(&mut self, view: &str) -> Option<FormSpec> {
        if !self.db().catalog().has_table(FORMS_TABLE) {
            return None;
        }
        let rid = self
            .db_mut()
            .index_lookup("pk_wow_forms", &[Value::text(view)])
            .ok()?
            .into_iter()
            .next()?;
        let info = self.db().catalog().table(FORMS_TABLE).ok()?.clone();
        let row = self.db_mut().get_row(info.id, rid).ok().flatten()?;
        match &row.values[1] {
            Value::Text(encoded) => FormSpec::from_stored(encoded),
            _ => None,
        }
    }

    /// Drop the stored form for a view (fall back to the compiled default
    /// for future windows).
    pub fn delete_form_spec(&mut self, view: &str) -> WowResult<bool> {
        if !self.db().catalog().has_table(FORMS_TABLE) {
            return Ok(false);
        }
        let Some(rid) = self
            .db_mut()
            .index_lookup("pk_wow_forms", &[Value::text(view)])?
            .into_iter()
            .next()
        else {
            return Ok(false);
        };
        Ok(self.db_mut().delete_rid(FORMS_TABLE, rid)?)
    }

    /// Re-order a window's browsing by a view column, keeping its query
    /// restriction. A sorted window browses a snapshot (the primary key's
    /// index order is the only free ordering; anything else pays the sort —
    /// the Table 2 trade, now user-selectable).
    pub fn sort_window(&mut self, win: WinId, column: &str, ascending: bool) -> WowResult<()> {
        let sort = vec![wow_rel::quel::ast::SortKey {
            column: column.to_string(),
            ascending,
        }];
        let query = ViewQuery {
            sort,
            ..self.window(win)?.query.clone()
        };
        self.requery_window(win, query)?;
        let order = if ascending { "" } else { " desc" };
        self.set_status(win, &format!("sorted by {column}{order}"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::WorldConfig;
    use crate::window_mgr::WindowStyle;
    use crate::world::World;
    use wow_rel::value::Value;

    fn world() -> World {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run(
                r#"
                CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)
                RANGE OF e IS emp
                APPEND TO emp (name = "alice", dept = "toy", salary = 120)
                APPEND TO emp (name = "bob", dept = "shoe", salary = 90)
                APPEND TO emp (name = "carol", dept = "toy", salary = 150)
                "#,
            )
            .unwrap();
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary)",
        )
        .unwrap();
        w
    }

    #[test]
    fn stored_forms_round_trip_and_apply() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        // Designer tweaks the caption, saves.
        {
            let spec = &mut w.window_mut(win).unwrap().form.spec;
            spec.fields[2].caption = "Monthly pay".into();
            spec.fields[2].width = 8;
        }
        w.save_form(win).unwrap();
        w.close_window(win).unwrap();
        // A new window on the same view picks up the stored form.
        let win2 = w.open_window(s, "emps", None).unwrap();
        let spec = &w.window(win2).unwrap().form.spec;
        assert_eq!(spec.fields[2].caption, "Monthly pay");
        assert_eq!(spec.fields[2].width, 8);
        // And it renders with the new caption.
        let screen = w.render_snapshot().join("\n");
        assert!(screen.contains("Monthly pay:"), "{screen}");
        // Deleting the stored form restores the compiled default.
        assert!(w.delete_form_spec("emps").unwrap());
        w.close_window(win2).unwrap();
        let win3 = w.open_window(s, "emps", None).unwrap();
        assert_eq!(
            w.window(win3).unwrap().form.spec.fields[2].caption,
            "Salary"
        );
    }

    #[test]
    fn stale_stored_forms_are_ignored() {
        let mut w = world();
        // A stored spec with the wrong arity (schema evolved).
        w.save_form_spec(
            "emps",
            "form emps\ntitle emps\nfield only_one|Only|TEXT|10|0|0||\n",
        )
        .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        assert_eq!(
            w.window(win).unwrap().form.spec.fields.len(),
            3,
            "stale spec ignored; compiled default used"
        );
    }

    #[test]
    fn sort_window_reorders_browse() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        // Default order is pk (name): alice first.
        assert_eq!(
            w.current_row(win).unwrap().unwrap().values[0],
            Value::text("alice")
        );
        w.sort_window(win, "salary", false).unwrap();
        assert_eq!(
            w.current_row(win).unwrap().unwrap().values[2],
            Value::Int(150),
            "highest salary first"
        );
        assert!(w.browse_next(win).unwrap());
        assert_eq!(
            w.current_row(win).unwrap().unwrap().values[2],
            Value::Int(120)
        );
        // Sorted cursors are still updatable (rids retained).
        w.enter_edit(win).unwrap();
        w.window_mut(win).unwrap().form.set_text(2, "125");
        w.commit(win).unwrap();
        let rows = w
            .db_mut()
            .run(r#"RETRIEVE (e.salary) WHERE e.name = "alice""#)
            .unwrap();
        assert_eq!(rows.tuples[0].values[0], Value::Int(125));
    }

    #[test]
    fn grid_windows_render_pages() {
        let mut w = world();
        let s = w.open_session();
        let win = w
            .open_window_styled(s, "emps", None, WindowStyle::Grid)
            .unwrap();
        let screen = w.render_snapshot().join("\n");
        // All three rows visible at once, plus headers.
        assert!(screen.contains("Name"), "{screen}");
        assert!(screen.contains("alice"));
        assert!(screen.contains("bob"));
        assert!(screen.contains("carol"));
        // Selection follows the cursor.
        w.browse_next(win).unwrap();
        let screen2 = w.render_snapshot().join("\n");
        assert!(screen2.contains("bob"));
        // Editing switches to the form and back.
        w.enter_edit(win).unwrap();
        let screen3 = w.render_snapshot().join("\n");
        assert!(
            screen3.contains("Name:"),
            "form shown in edit mode: {screen3}"
        );
        w.cancel_mode(win).unwrap();
        let screen4 = w.render_snapshot().join("\n");
        assert!(!screen4.contains("Name:"), "grid back in browse: {screen4}");
    }
}
