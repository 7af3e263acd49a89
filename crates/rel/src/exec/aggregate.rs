//! Grouping and aggregation.

use super::Rows;
use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Count of non-null inputs (or of rows, when the input column is none).
    Count,
    /// Sum of numeric inputs.
    Sum,
    /// Mean of numeric inputs.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Parse an aggregate keyword.
    pub fn from_keyword(word: &str) -> Option<AggFunc> {
        match word.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Keyword form.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate to compute.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column in the child schema (`None` = COUNT(*) style).
    pub input: Option<usize>,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Output type of this aggregate given the input schema.
    pub fn output_type(&self, input_schema: &Schema) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self
                .input
                .and_then(|i| input_schema.columns.get(i))
                .map(|c| c.ty)
                .unwrap_or(DataType::Int),
        }
    }
}

/// Running state for one aggregate in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Avg(f64, i64),
    MinMax(Option<Value>, bool /* is_min */),
}

impl AggState {
    fn new(spec: &AggSpec, input_schema: &Schema) -> AggState {
        match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => {
                let is_int = spec
                    .input
                    .and_then(|i| input_schema.columns.get(i))
                    .map(|c| c.ty == DataType::Int)
                    .unwrap_or(true);
                if is_int {
                    AggState::SumInt(0, false)
                } else {
                    AggState::SumFloat(0.0, false)
                }
            }
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::MinMax(None, true),
            AggFunc::Max => AggState::MinMax(None, false),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> RelResult<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) counts non-nulls.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            // The binder admits only numeric SUM/AVG input, so anything not
            // a number here is NULL, which aggregates skip.
            AggState::SumInt(acc, any) => {
                if let Some(Value::Int(i)) = v {
                    *acc = acc
                        .checked_add(*i)
                        .ok_or(RelError::Arithmetic("SUM overflow"))?;
                    *any = true;
                }
            }
            AggState::SumFloat(acc, any) => {
                if let Some(f) = v.and_then(Value::as_f64) {
                    *acc += f;
                    *any = true;
                }
            }
            AggState::Avg(acc, n) => {
                if let Some(f) = v.and_then(Value::as_f64) {
                    *acc += f;
                    *n += 1;
                }
            }
            AggState::MinMax(best, is_min) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                let ord = val.total_cmp(b);
                                if *is_min {
                                    ord == std::cmp::Ordering::Less
                                } else {
                                    ord == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if better {
                            *best = Some(val.clone());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(acc, any) => {
                if any {
                    Value::Int(acc)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat(acc, any) => {
                if any {
                    Value::Float(acc)
                } else {
                    Value::Null
                }
            }
            AggState::Avg(acc, n) => {
                if n > 0 {
                    Value::Float(acc / n as f64)
                } else {
                    Value::Null
                }
            }
            AggState::MinMax(best, _) => best.unwrap_or(Value::Null),
        }
    }
}

/// Grouping and aggregation folded one row at a time, so no operator
/// holds its input: the streaming `Aggregate` feeds it the rows of each
/// batch or block as they arrive, and [`aggregate`] feeds it a
/// materialized input.
///
/// A global aggregate (empty `group_by`) has exactly one group, so it does
/// no hashing; a grouped one looks each row's encoded key up and allocates
/// only when it meets a new group.
pub(crate) struct Fold {
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// The states a new group starts from.
    init: Vec<AggState>,
    /// Each group's key values and states, in first-appearance order.
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
    /// Encoded group key → index into `groups`.
    index: HashMap<Vec<u8>, usize>,
    /// The current row's encoded key (reused from row to row).
    key: Vec<u8>,
}

impl Fold {
    /// An empty fold over input rows of `input_schema`.
    pub(crate) fn new(input_schema: &Schema, group_by: &[usize], aggs: &[AggSpec]) -> Fold {
        let init: Vec<AggState> = aggs
            .iter()
            .map(|a| AggState::new(a, input_schema))
            .collect();
        // With no grouping, one output row even for empty input (COUNT = 0,
        // other aggregates NULL) — SQL semantics.
        let groups = if group_by.is_empty() {
            vec![(Vec::new(), init.clone())]
        } else {
            Vec::new()
        };
        Fold {
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            init,
            groups,
            index: HashMap::new(),
            key: Vec::new(),
        }
    }

    /// Fold one input row, whose column `c` is `col(c)`.
    pub(crate) fn add<'v>(&mut self, col: impl Fn(usize) -> &'v Value) -> RelResult<()> {
        let g = if self.group_by.is_empty() {
            0
        } else {
            self.key.clear();
            for &c in &self.group_by {
                col(c).encode_key(&mut self.key);
            }
            match self.index.get(self.key.as_slice()) {
                Some(&g) => g,
                None => {
                    self.index.insert(self.key.clone(), self.groups.len());
                    let key_vals = self.group_by.iter().map(|&c| col(c).clone()).collect();
                    self.groups.push((key_vals, self.init.clone()));
                    self.groups.len() - 1
                }
            }
        };
        for (spec, state) in self.aggs.iter().zip(&mut self.groups[g].1) {
            state.update(spec.input.map(&col))?;
        }
        Ok(())
    }

    /// One output row per group, in first-appearance order: the group's
    /// key values, then its aggregates.
    pub(crate) fn finish(self) -> Vec<Tuple> {
        self.groups
            .into_iter()
            .map(|(mut vals, states)| {
                vals.extend(states.into_iter().map(AggState::finish));
                Tuple::new(vals)
            })
            .collect()
    }
}

/// Execute grouping + aggregation over materialized input rows: the
/// reference the streaming `Aggregate` is held to, through the same
/// fold.
///
/// With an empty `group_by`, exactly one output row is produced even for
/// empty input (COUNT = 0, other aggregates NULL) — SQL semantics. Group
/// output order follows first-appearance order of each group, which keeps
/// results deterministic.
pub fn aggregate(
    schema: Schema,
    input: &Rows,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> RelResult<Rows> {
    let mut fold = Fold::new(&input.schema, group_by, aggs);
    for t in &input.tuples {
        fold.add(|c| &t.values[c])?;
    }
    Ok(Rows {
        schema,
        tuples: fold.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn input() -> Rows {
        Rows {
            schema: Schema::new(vec![
                Column::new("dept", DataType::Text),
                Column::new("salary", DataType::Int),
            ]),
            tuples: vec![
                Tuple::new(vec![Value::text("toy"), Value::Int(120)]),
                Tuple::new(vec![Value::text("shoe"), Value::Int(90)]),
                Tuple::new(vec![Value::text("toy"), Value::Int(150)]),
                Tuple::new(vec![Value::text("shoe"), Value::Null]),
            ],
        }
    }

    fn out_schema(group: &[usize], aggs: &[AggSpec], input: &Rows) -> Schema {
        let mut cols: Vec<Column> = group
            .iter()
            .map(|&g| input.schema.column(g).clone())
            .collect();
        for a in aggs {
            cols.push(Column::new(a.name.clone(), a.output_type(&input.schema)));
        }
        Schema::new(cols)
    }

    #[test]
    fn grouped_sum_count_avg() {
        let rows = input();
        let aggs = vec![
            AggSpec {
                func: AggFunc::Sum,
                input: Some(1),
                name: "total".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                input: Some(1),
                name: "n".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                input: Some(1),
                name: "mean".into(),
            },
        ];
        let schema = out_schema(&[0], &aggs, &rows);
        let out = aggregate(schema, &rows, &[0], &aggs).unwrap();
        assert_eq!(out.len(), 2);
        // First-appearance order: toy then shoe.
        assert_eq!(out.tuples[0].values[0], Value::text("toy"));
        assert_eq!(out.tuples[0].values[1], Value::Int(270));
        assert_eq!(out.tuples[0].values[2], Value::Int(2));
        assert_eq!(out.tuples[0].values[3], Value::Float(135.0));
        // shoe: one null salary → COUNT(col)=1, SUM=90.
        assert_eq!(out.tuples[1].values[1], Value::Int(90));
        assert_eq!(out.tuples[1].values[2], Value::Int(1));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let rows = Rows::empty(input().schema);
        let aggs = vec![
            AggSpec {
                func: AggFunc::Count,
                input: None,
                name: "n".into(),
            },
            AggSpec {
                func: AggFunc::Sum,
                input: Some(1),
                name: "s".into(),
            },
            AggSpec {
                func: AggFunc::Min,
                input: Some(1),
                name: "lo".into(),
            },
        ];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples[0].values[0], Value::Int(0));
        assert!(out.tuples[0].values[1].is_null());
        assert!(out.tuples[0].values[2].is_null());
    }

    #[test]
    fn count_star_counts_null_rows() {
        let rows = input();
        let aggs = vec![
            AggSpec {
                func: AggFunc::Count,
                input: None,
                name: "all".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                input: Some(1),
                name: "nonnull".into(),
            },
        ];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert_eq!(out.tuples[0].values[0], Value::Int(4));
        assert_eq!(out.tuples[0].values[1], Value::Int(3));
    }

    #[test]
    fn min_max() {
        let rows = input();
        let aggs = vec![
            AggSpec {
                func: AggFunc::Min,
                input: Some(1),
                name: "lo".into(),
            },
            AggSpec {
                func: AggFunc::Max,
                input: Some(1),
                name: "hi".into(),
            },
        ];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert_eq!(out.tuples[0].values[0], Value::Int(90));
        assert_eq!(out.tuples[0].values[1], Value::Int(150));
    }

    #[test]
    fn min_max_on_text() {
        let rows = input();
        let aggs = vec![
            AggSpec {
                func: AggFunc::Min,
                input: Some(0),
                name: "first".into(),
            },
            AggSpec {
                func: AggFunc::Max,
                input: Some(0),
                name: "last".into(),
            },
        ];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert_eq!(out.tuples[0].values[0], Value::text("shoe"));
        assert_eq!(out.tuples[0].values[1], Value::text("toy"));
    }

    #[test]
    fn sum_type_error_is_reported() {
        // Column 0 is TEXT: the binder refuses SUM over it before any
        // aggregate state exists.
        let rows = input();
        let bad = crate::quel::ast::Target::Agg {
            name: Some("bad".into()),
            func: AggFunc::Sum,
            arg: Some(crate::expr::Expr::Column(0)),
        };
        assert!(matches!(
            crate::bind::bind_target(bad, &rows.schema),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn sum_over_floats() {
        let rows = Rows {
            schema: Schema::new(vec![Column::new("x", DataType::Float)]),
            tuples: vec![
                Tuple::new(vec![Value::Float(1.5)]),
                Tuple::new(vec![Value::Float(2.5)]),
            ],
        };
        let aggs = vec![AggSpec {
            func: AggFunc::Sum,
            input: Some(0),
            name: "s".into(),
        }];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert_eq!(out.tuples[0].values[0], Value::Float(4.0));
    }

    #[test]
    fn sum_avg_count_over_all_null_group() {
        // A group whose every input is NULL: SUM and AVG come out NULL
        // (not 0), COUNT(col) is 0, while COUNT(*) still counts the rows.
        let rows = Rows {
            schema: Schema::new(vec![
                Column::new("g", DataType::Text),
                Column::new("x", DataType::Int),
            ]),
            tuples: vec![
                Tuple::new(vec![Value::text("n"), Value::Null]),
                Tuple::new(vec![Value::text("n"), Value::Null]),
                Tuple::new(vec![Value::text("v"), Value::Int(5)]),
            ],
        };
        let aggs = vec![
            AggSpec {
                func: AggFunc::Sum,
                input: Some(1),
                name: "s".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                input: Some(1),
                name: "m".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                input: Some(1),
                name: "n".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                input: None,
                name: "all".into(),
            },
        ];
        let schema = out_schema(&[0], &aggs, &rows);
        let out = aggregate(schema, &rows, &[0], &aggs).unwrap();
        assert_eq!(out.len(), 2);
        let null_group = &out.tuples[0];
        assert_eq!(null_group.values[0], Value::text("n"));
        assert!(null_group.values[1].is_null(), "SUM over all-NULL is NULL");
        assert!(null_group.values[2].is_null(), "AVG over all-NULL is NULL");
        assert_eq!(null_group.values[3], Value::Int(0));
        assert_eq!(null_group.values[4], Value::Int(2));
        let live_group = &out.tuples[1];
        assert_eq!(live_group.values[1], Value::Int(5));
        assert_eq!(live_group.values[2], Value::Float(5.0));
        assert_eq!(live_group.values[3], Value::Int(1));
    }

    #[test]
    fn float_sum_and_minmax_over_all_nulls_are_null() {
        let rows = Rows {
            schema: Schema::new(vec![Column::new("x", DataType::Float)]),
            tuples: vec![Tuple::new(vec![Value::Null]), Tuple::new(vec![Value::Null])],
        };
        let aggs = vec![
            AggSpec {
                func: AggFunc::Sum,
                input: Some(0),
                name: "s".into(),
            },
            AggSpec {
                func: AggFunc::Min,
                input: Some(0),
                name: "lo".into(),
            },
            AggSpec {
                func: AggFunc::Max,
                input: Some(0),
                name: "hi".into(),
            },
        ];
        let schema = out_schema(&[], &aggs, &rows);
        let out = aggregate(schema, &rows, &[], &aggs).unwrap();
        assert!(out.tuples[0].values.iter().all(Value::is_null));
    }

    #[test]
    fn group_by_null_values_forms_a_group() {
        let rows = Rows {
            schema: Schema::new(vec![
                Column::new("g", DataType::Text),
                Column::new("x", DataType::Int),
            ]),
            tuples: vec![
                Tuple::new(vec![Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Null, Value::Int(2)]),
                Tuple::new(vec![Value::text("a"), Value::Int(3)]),
            ],
        };
        let aggs = vec![AggSpec {
            func: AggFunc::Sum,
            input: Some(1),
            name: "s".into(),
        }];
        let schema = out_schema(&[0], &aggs, &rows);
        let out = aggregate(schema, &rows, &[0], &aggs).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.tuples[0].values[0].is_null());
        assert_eq!(out.tuples[0].values[1], Value::Int(3));
    }
}
