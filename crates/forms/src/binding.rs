//! The live form: editors, focus, fill/collect, rendering.

use crate::error::FormResult;
use crate::format;
use crate::layout::layout_form;
use crate::spec::FormSpec;
use crate::validate::validate_form;
use wow_rel::value::Value;
use wow_tui::buffer::ScreenBuffer;
use wow_tui::cell::Style;
use wow_tui::event::Key;
use wow_tui::geom::{Point, Rect};
use wow_tui::widget::{Response, TextField, Widget};

/// A form bound to live editors — what actually sits inside a window.
#[derive(Debug, Clone)]
pub struct FormInstance {
    /// The specification.
    pub spec: FormSpec,
    editors: Vec<TextField>,
    focused: usize,
    scroll: usize,
    /// A sticky user-facing message (validation error, hint).
    pub message: String,
}

impl FormInstance {
    /// A blank instance of a form.
    pub fn new(spec: FormSpec) -> FormInstance {
        let editors = spec.fields.iter().map(|_| TextField::new()).collect();
        let focused = spec.fields.iter().position(|f| !f.read_only).unwrap_or(0);
        FormInstance {
            spec,
            editors,
            focused,
            scroll: 0,
            message: String::new(),
        }
    }

    /// The focused field index.
    pub fn focused(&self) -> usize {
        self.focused
    }

    /// Focus a field by index (clamped).
    pub fn focus(&mut self, i: usize) {
        if !self.spec.fields.is_empty() {
            self.focused = i.min(self.spec.fields.len() - 1);
        }
    }

    /// Focus a field by name.
    pub fn focus_field(&mut self, name: &str) -> bool {
        match self.spec.field_index(name) {
            Some(i) => {
                self.focused = i;
                true
            }
            None => false,
        }
    }

    /// Current entered texts, in field order.
    pub fn texts(&self) -> Vec<String> {
        self.editors.iter().map(|e| e.value()).collect()
    }

    /// The text of one field.
    pub fn text(&self, i: usize) -> String {
        self.editors[i].value()
    }

    /// Overwrite one field's text.
    pub fn set_text(&mut self, i: usize, text: &str) {
        self.editors[i].set_value(text);
    }

    /// Fill every field from a value row (display formatting applied).
    pub fn fill(&mut self, values: &[Value]) {
        for (e, v) in self.editors.iter_mut().zip(values) {
            e.set_value(&format::display(v));
        }
    }

    /// Clear every field.
    pub fn clear(&mut self) {
        for e in &mut self.editors {
            e.set_value("");
        }
        self.message.clear();
    }

    /// Validate and collect the entered values.
    pub fn values(&self) -> FormResult<Vec<Value>> {
        validate_form(&self.spec, &self.texts())
    }

    /// Which fields differ from `original` (by display text) — the dirty
    /// set an edit commit writes back.
    pub fn dirty_fields(&self, original: &[Value]) -> Vec<usize> {
        self.editors
            .iter()
            .enumerate()
            .zip(original)
            .filter(|((_, e), v)| e.value() != format::display(v))
            .map(|((i, _), _)| i)
            .collect()
    }

    fn next_focusable(&self, from: usize, forward: bool) -> usize {
        let n = self.spec.fields.len();
        if n == 0 {
            return 0;
        }
        let mut i = from;
        for _ in 0..n {
            i = if forward {
                (i + 1) % n
            } else {
                (i + n - 1) % n
            };
            if !self.spec.fields[i].read_only {
                return i;
            }
        }
        from
    }

    /// Route a key: Tab/Shift-Tab move focus (skipping read-only fields);
    /// anything else goes to the focused editor unless it is read-only.
    pub fn handle_key(&mut self, key: Key) -> Response {
        match key {
            Key::Tab | Key::Down => {
                self.focused = self.next_focusable(self.focused, true);
                Response::Consumed
            }
            Key::BackTab | Key::Up => {
                self.focused = self.next_focusable(self.focused, false);
                Response::Consumed
            }
            other => {
                if self
                    .spec
                    .fields
                    .get(self.focused)
                    .is_some_and(|f| f.read_only)
                {
                    // Read-only fields still let Enter/Esc bubble.
                    return match other {
                        Key::Enter => Response::Submit,
                        Key::Esc => Response::Cancel,
                        _ => Response::Ignored,
                    };
                }
                self.editors[self.focused].handle_key(other)
            }
        }
    }

    /// Render the form (captions + editors) into `area`. `active` controls
    /// whether the focused field shows its cursor.
    pub fn render(&mut self, buf: &mut ScreenBuffer, area: Rect, active: bool) {
        if area.is_empty() || self.spec.fields.is_empty() {
            return;
        }
        // Keep the focused field visible.
        let rows = area.h as usize;
        if self.focused < self.scroll {
            self.scroll = self.focused;
        } else if rows > 0 && self.focused >= self.scroll + rows {
            self.scroll = self.focused + 1 - rows;
        }
        let layout = layout_form(&self.spec, area, self.scroll);
        for (i, (f, pos)) in self.spec.fields.iter().zip(&layout.fields).enumerate() {
            if pos.caption.is_empty() && pos.editor.is_empty() {
                continue;
            }
            let caption_style = if f.required {
                Style::plain().bold()
            } else {
                Style::plain()
            };
            let caption = format!("{}:", f.caption);
            buf.draw_text(
                Point::new(pos.caption.x, pos.caption.y),
                &caption,
                caption_style,
                pos.caption,
            );
            let focused = active && i == self.focused;
            if f.read_only {
                // Read-only: plain text, reverse-video when focused.
                let style = if focused {
                    Style::plain().reverse()
                } else {
                    Style::plain()
                };
                buf.draw_text(
                    Point::new(pos.editor.x, pos.editor.y),
                    &self.editors[i].value(),
                    style,
                    pos.editor,
                );
            } else {
                self.editors[i].render(buf, pos.editor, focused);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_form;
    use wow_rel::schema::{Column, Schema};
    use wow_rel::types::DataType;
    use wow_tui::event::parse_script;
    use wow_tui::geom::Size;

    fn form() -> FormInstance {
        let schema = Schema::new(vec![
            Column::not_null("name", DataType::Text),
            Column::new("salary", DataType::Int),
            Column::new("hired", DataType::Date),
        ]);
        let spec = compile_form("emp", "Employee", &schema, &[true, true, false]);
        FormInstance::new(spec)
    }

    fn send(f: &mut FormInstance, script: &str) {
        for k in parse_script(script) {
            f.handle_key(k);
        }
    }

    #[test]
    fn typing_fills_focused_field() {
        let mut f = form();
        send(&mut f, "alice<tab>120");
        assert_eq!(f.texts(), vec!["alice", "120", ""]);
    }

    #[test]
    fn tab_skips_read_only_fields() {
        let mut f = form();
        assert_eq!(f.focused(), 0);
        send(&mut f, "<tab>");
        assert_eq!(f.focused(), 1);
        send(&mut f, "<tab>");
        assert_eq!(f.focused(), 0, "hired is read-only, wrap to name");
        send(&mut f, "<backtab>");
        assert_eq!(f.focused(), 1);
    }

    #[test]
    fn read_only_field_rejects_typing() {
        let mut f = form();
        f.focus(2);
        send(&mut f, "1999-01-01");
        assert_eq!(f.text(2), "");
        assert_eq!(f.handle_key(Key::Enter), Response::Submit);
    }

    #[test]
    fn fill_and_collect_round_trip() {
        let mut f = form();
        f.fill(&[Value::text("bob"), Value::Int(90), Value::Date(4890)]);
        assert_eq!(f.texts(), vec!["bob", "90", "1983-05-23"]);
        let vals = f.values().unwrap();
        assert_eq!(
            vals,
            vec![Value::text("bob"), Value::Int(90), Value::Date(4890)]
        );
    }

    #[test]
    fn validation_errors_surface() {
        let mut f = form();
        send(&mut f, "<tab>not_a_number");
        assert!(f.values().is_err());
        // Required name empty also fails.
        let mut f = form();
        send(&mut f, "<tab>5");
        assert!(f.values().is_err());
    }

    #[test]
    fn dirty_fields_detected() {
        let mut f = form();
        let original = vec![Value::text("bob"), Value::Int(90), Value::Date(4890)];
        f.fill(&original);
        assert!(f.dirty_fields(&original).is_empty());
        send(&mut f, "X"); // edit name
        assert_eq!(f.dirty_fields(&original), vec![0]);
        f.focus(1);
        send(&mut f, "<backspace>");
        assert_eq!(f.dirty_fields(&original), vec![0, 1]);
    }

    #[test]
    fn renders_captions_and_values() {
        let mut f = form();
        f.fill(&[Value::text("bob"), Value::Int(90), Value::Null]);
        let mut buf = ScreenBuffer::new(Size::new(30, 5));
        f.render(&mut buf, Rect::new(0, 0, 30, 5), true);
        let rows = buf.to_strings();
        assert!(rows[0].starts_with("Name:"), "{rows:?}");
        assert!(rows[0].contains("bob"));
        assert!(rows[1].contains("90"));
        assert!(rows[2].starts_with("Hired:"));
    }

    #[test]
    fn scrolls_to_keep_focus_visible() {
        let schema = Schema::new(
            (0..10)
                .map(|i| Column::new(format!("f{i}"), DataType::Text))
                .collect(),
        );
        let spec = compile_form("big", "Big", &schema, &[true; 10]);
        let mut f = FormInstance::new(spec);
        f.focus(8);
        let mut buf = ScreenBuffer::new(Size::new(30, 4));
        f.render(&mut buf, Rect::new(0, 0, 30, 4), true);
        let rows = buf.to_strings();
        assert!(
            rows.iter().any(|r| r.contains("F8:")),
            "focused field visible: {rows:?}"
        );
        assert!(!rows.iter().any(|r| r.contains("F0:")));
    }

    #[test]
    fn clear_resets() {
        let mut f = form();
        f.fill(&[Value::text("x"), Value::Int(1), Value::Null]);
        f.message = "oops".into();
        f.clear();
        assert_eq!(f.texts(), vec!["", "", ""]);
        assert!(f.message.is_empty());
    }
}
