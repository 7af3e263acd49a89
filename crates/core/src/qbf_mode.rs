//! Query-by-form: restricting a window to the rows the user described.

use crate::error::{WowError, WowResult};
use crate::window_mgr::{Mode, WinId};
use crate::world::World;
use wow_forms::qbf::form_predicate;
use wow_views::expand::ViewQuery;

impl World {
    /// Enter Query mode: the form goes blank and collects restrictions.
    pub fn enter_query(&mut self, win: WinId) -> WowResult<()> {
        let w = self.window_mut(win)?;
        if !matches!(w.mode, Mode::Browse) {
            return Err(WowError::WrongMode {
                wanted: "query",
                mode: w.mode.name(),
            });
        }
        // QBF entries go into every field, including normally read-only
        // ones — querying a computed column is legal. The browse form is
        // set aside for a blank copy with every field open and optional.
        let mut spec = w.form.spec.clone();
        for f in &mut spec.fields {
            f.read_only = false;
            f.required = false;
        }
        let query_form = wow_forms::FormInstance::new(spec);
        w.browse_form = Some(std::mem::replace(&mut w.form, query_form));
        w.mode = Mode::Query;
        w.status = "enter restrictions; Enter runs, Esc cancels".into();
        Ok(())
    }

    /// Execute the query entered on the form (Enter in Query mode). The
    /// restriction replaces any earlier one; the window's sort stays.
    pub fn apply_query(&mut self, win: WinId) -> WowResult<()> {
        let query = {
            let w = self.window(win)?;
            if !matches!(w.mode, Mode::Query) {
                return Err(WowError::WrongMode {
                    wanted: "run a query",
                    mode: w.mode.name(),
                });
            }
            let pred = form_predicate(&w.form.spec, &w.form.texts())?;
            ViewQuery {
                pred,
                ..w.query.clone()
            }
        };
        self.requery_window(win, query)?;
        // Back to the browse form (a redefinition already replaced it).
        let w = self.window_mut(win)?;
        if let Some(form) = w.browse_form.take() {
            w.form = form;
        }
        w.mode = Mode::Browse;
        w.show_current();
        w.status = match w.cursor.is_empty() {
            true => "no rows match the query".into(),
            false => String::new(),
        };
        Ok(())
    }

    /// Drop the window's active restriction and show everything again, in
    /// the window's sort order.
    pub fn clear_query(&mut self, win: WinId) -> WowResult<()> {
        let w = self.window(win)?;
        if w.query.pred.is_none() {
            return Ok(());
        }
        let query = ViewQuery {
            pred: None,
            ..w.query.clone()
        };
        self.requery_window(win, query)?;
        self.window_mut(win)?.status.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::WorldConfig;
    use crate::window_mgr::{Mode, WinId, WindowStyle};
    use crate::world::{CursorStrategy, World};
    use wow_tui::event::parse_script;

    fn world() -> (World, crate::session::SessionId, crate::window_mgr::WinId) {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)")
            .unwrap();
        for (n, d, s) in [
            ("alice", "toy", 120),
            ("bob", "shoe", 90),
            ("carol", "toy", 150),
            ("dave", "candy", 70),
        ] {
            w.db_mut()
                .run(&format!(
                    r#"APPEND TO emp (name = "{n}", dept = "{d}", salary = {s})"#
                ))
                .unwrap();
        }
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary)",
        )
        .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        (w, s, win)
    }

    fn send(w: &mut World, script: &str) {
        for k in parse_script(script) {
            w.handle_key(k).unwrap();
        }
    }

    #[test]
    fn query_narrows_browse() {
        let (mut w, _, win) = world();
        // 'q' enter query; type dept restriction in field 2 (tab once from
        // name), salary > 100 in field 3.
        send(&mut w, "q<tab>toy<tab>>100<enter>");
        assert_eq!(w.window(win).unwrap().mode, Mode::Browse);
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[0].to_string(), "alice");
        assert!(w.browse_next(win).unwrap());
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[0].to_string(), "carol");
        assert!(!w.browse_next(win).unwrap(), "only two matches");
    }

    #[test]
    fn patterns_and_clear() {
        let (mut w, _, win) = world();
        send(&mut w, "q?a*<enter>"); // names with 'a' second letter: carol? no — ?a* = 2nd char a: carol(no, c-a yes!), dave(d-a yes)
        let mut names = Vec::new();
        loop {
            let row = w.current_row(win).unwrap();
            match row {
                Some(t) => names.push(t.values[0].to_string()),
                None => break,
            }
            if !w.browse_next(win).unwrap() {
                break;
            }
        }
        assert_eq!(names, vec!["carol", "dave"]);
        // 'x' clears the restriction.
        send(&mut w, "x");
        assert!(w.window(win).unwrap().query.pred.is_none());
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[0].to_string(), "alice");
    }

    #[test]
    fn no_matches_reports_and_stays_sane() {
        let (mut w, _, win) = world();
        send(&mut w, "qzzz<enter>");
        assert!(w.current_row(win).unwrap().is_none());
        assert!(w.window(win).unwrap().status.contains("no rows"));
        // Editing with no row errors cleanly.
        assert!(w.enter_edit(win).is_err());
    }

    #[test]
    fn bad_query_entry_reports_error() {
        let (mut w, _, win) = world();
        send(&mut w, "q<tab><tab>abc<enter>"); // salary expects a number
        let state = w.window(win).unwrap();
        assert_eq!(state.mode, Mode::Query, "stay in query mode to fix it");
        assert!(state.status.contains("number"), "{}", state.status);
    }

    #[test]
    fn query_on_read_only_window_works() {
        let (mut w, s, _) = world();
        w.define_view(
            "totals",
            "RANGE OF e IS emp RETRIEVE (e.dept, total = SUM(e.salary)) GROUP BY e.dept",
        )
        .unwrap();
        let win = w.open_window(s, "totals", None).unwrap();
        w.enter_query(win).unwrap();
        {
            let form = &mut w.window_mut(win).unwrap().form;
            form.set_text(0, "toy");
        }
        // Aggregate views reject restrictions at the expansion layer —
        // but materialized cursors with client-side filtering are fine for
        // updatable ones; here we expect a clean error in the status.
        let result = w.apply_query(win);
        assert!(result.is_err() || w.current_row(win).unwrap().is_some());
    }

    /// Run a query with `text` typed into field `field`.
    fn query(w: &mut World, win: WinId, field: usize, text: &str) {
        w.enter_query(win).unwrap();
        w.window_mut(win).unwrap().form.set_text(field, text);
        w.apply_query(win).unwrap();
    }

    #[test]
    fn system_windows_stay_snapshots_through_query_and_clear() {
        let (mut w, s, _) = world();
        let win = w.open_window(s, "__wow_metrics", None).unwrap();
        query(&mut w, win, 0, "pool*");
        assert!(w.window(win).unwrap().cursor.known_len().is_some());
        w.clear_query(win).unwrap();
        assert!(w.window(win).unwrap().cursor.known_len().is_some());
    }

    #[test]
    fn forced_snapshot_windows_stay_snapshots_through_query() {
        let (mut w, s, _) = world();
        let strategy = CursorStrategy::Materialized;
        let win = w
            .open_window_using(s, "emps", None, WindowStyle::Form, strategy)
            .unwrap();
        query(&mut w, win, 1, "toy");
        assert_eq!(w.window(win).unwrap().cursor.known_len(), Some(2));
    }

    /// Each field as `Caption rw|ro/req|opt`.
    fn flags(w: &World, win: WinId) -> Vec<String> {
        let fields = &w.window(win).unwrap().form.spec.fields;
        let flag = |on, yes, no| if on { yes } else { no };
        fields
            .iter()
            .map(|f| {
                let rw = flag(f.read_only, "ro", "rw");
                format!("{} {rw}/{}", f.caption, flag(f.required, "req", "opt"))
            })
            .collect()
    }

    #[test]
    fn esc_from_query_mode_restores_the_browse_form() {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run(
                r#"CREATE TABLE emp (name TEXT KEY, dept TEXT NOT NULL, salary INT)
                   APPEND TO emp (name = "alice", dept = "toy", salary = 120)"#,
            )
            .unwrap();
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary, twice = e.salary * 2)",
        )
        .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        let browse = [
            "Name rw/req",
            "Dept rw/req",
            "Salary rw/opt",
            "Twice ro/opt",
        ];
        assert_eq!(flags(&w, win), browse);
        send(&mut w, "q");
        assert!(flags(&w, win).iter().all(|f| f.ends_with("rw/opt")));
        send(&mut w, "<esc>");
        assert_eq!(w.window(win).unwrap().mode, Mode::Browse);
        assert_eq!(flags(&w, win), browse);
        // Redefined while the query was typed: the new definition's form.
        send(&mut w, "q");
        w.redefine_view("emps", "RANGE OF e IS emp RETRIEVE (e.salary, e.name)")
            .unwrap();
        send(&mut w, "<esc>");
        assert_eq!(flags(&w, win), ["Salary rw/opt", "Name rw/req"]);
    }

    #[test]
    fn enter_in_query_mode_keeps_the_stored_form() {
        let (mut w, s, win) = world();
        w.window_mut(win).unwrap().form.spec.fields[2].caption = "Monthly pay".into();
        w.save_form(win).unwrap();
        w.close_window(win).unwrap();
        let win = w.open_window(s, "emps", None).unwrap();
        let browse = ["Name rw/req", "Dept rw/opt", "Monthly pay rw/opt"];
        assert_eq!(flags(&w, win), browse);
        send(&mut w, "q<tab><tab>>100<enter>");
        assert_eq!(w.window(win).unwrap().mode, Mode::Browse);
        assert_eq!(flags(&w, win), browse);
        // Redefined while the query was typed: the new definition's form
        // (the stored one no longer fits it).
        send(&mut w, "q");
        w.redefine_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)")
            .unwrap();
        send(&mut w, "<enter>");
        assert_eq!(w.window(win).unwrap().mode, Mode::Browse);
        assert_eq!(flags(&w, win), ["Name rw/req", "Salary rw/opt"]);
    }

    #[test]
    fn sort_survives_query_and_clear() {
        let (mut w, _, win) = world();
        let names = |w: &World| -> Vec<String> {
            let rows = w.window(win).unwrap().cursor.page_rows();
            rows.iter().map(|(_, t)| t.values[0].to_string()).collect()
        };
        w.sort_window(win, "name", false).unwrap();
        query(&mut w, win, 1, "toy");
        assert_eq!(names(&w), ["carol", "alice"]);
        w.clear_query(win).unwrap();
        assert_eq!(names(&w), ["dave", "carol", "bob", "alice"]);
    }
}
