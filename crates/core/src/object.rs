//! Compiled cached objects.
//!
//! A [`CacheableDef`] compiles against the model registry into an
//! `ObjectInner` (crate-private): the canonical query template (for interception
//! matching), the key-extraction positions (for triggers), and the
//! class-specific metadata. Compilation performs the paper's "query
//! generation" step of a cache class (§3.1 step 1).

use crate::def::{CacheClassKind, CacheableDef, SortOrder};
use genie_orm::{ModelRegistry, QuerySet};
use genie_storage::{PreparedSelect, Result, Row, StorageError, Value, ValueType};
use std::sync::Arc;

/// Link-class compilation products.
#[derive(Debug, Clone)]
pub(crate) struct LinkInfo {
    /// Joined table name.
    pub target_table: String,
    /// Template: joined rows contributed by one base row
    /// (`... WHERE base.id = $1`).
    pub by_pk_template: PreparedSelect,
    /// Template: base rows joining a given target column value
    /// (`SELECT * FROM base WHERE base.<base_column> = $1`).
    pub reverse_template: PreparedSelect,
    /// Position of the join column in the *target* row.
    pub target_column_pos: usize,
}

/// A fully compiled cached object.
#[derive(Debug)]
pub(crate) struct ObjectInner {
    /// The original declaration.
    pub def: CacheableDef,
    /// Main model's table.
    pub table: String,
    /// Positions of `where_fields` in the main table's rows.
    pub key_positions: Vec<usize>,
    /// The declared types of those columns: key values are coerced to
    /// them, as the engine coerces a stored value.
    pub key_types: Vec<ValueType>,
    /// Number of columns in the main table.
    pub base_arity: usize,
    /// The canonical query template this object intercepts, prepared:
    /// fills, coherence checks and in-transaction bypass reads run it.
    pub template: PreparedSelect,
    /// The template's SQL text — the interception fingerprint.
    pub fingerprint: String,
    /// Output column names for served results.
    pub columns: Arc<[String]>,
    /// Top-K: position of the sort field in main rows.
    pub sort_position: Option<usize>,
    /// Top-K: `k + reserve`.
    pub capacity: usize,
    /// Top-K: template fetching `k + reserve` rows for fills.
    pub fill_template: Option<PreparedSelect>,
    /// Link-class extras.
    pub link: Option<LinkInfo>,
}

impl ObjectInner {
    /// Compiles a definition against the registry.
    ///
    /// # Errors
    ///
    /// Unknown models/fields report the underlying storage errors;
    /// structural problems report [`StorageError::Parse`].
    pub fn compile(def: CacheableDef, registry: &ModelRegistry) -> Result<ObjectInner> {
        def.validate()?;
        let model = registry.model(&def.main_model)?.clone();
        let schema = model.to_schema()?;
        let base_cols = model.columns();
        let key_positions: Vec<usize> =
            def.where_fields
                .iter()
                .map(|f| {
                    base_cols.iter().position(|c| c == f).ok_or_else(|| {
                        StorageError::UnknownColumn {
                            table: model.table().to_owned(),
                            column: f.clone(),
                        }
                    })
                })
                .collect::<Result<_>>()?;
        let key_types = key_positions
            .iter()
            .map(|&p| schema.columns()[p].ty)
            .collect();

        // Build the template with dummy parameters through the same
        // QuerySet machinery the application uses, guaranteeing identical
        // canonical SQL.
        let mut qs = QuerySet::new(model.clone());
        let mut link_info = None;
        let mut columns = base_cols.clone();
        if let CacheClassKind::Link { step } = &def.kind {
            let target = registry.model(&step.target_model)?.clone();
            let target_cols = target.columns();
            if !base_cols.iter().any(|c| c == &step.base_column) {
                return Err(StorageError::UnknownColumn {
                    table: model.table().to_owned(),
                    column: step.base_column.clone(),
                });
            }
            let target_column_pos = target_cols
                .iter()
                .position(|c| c == &step.target_column)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: target.table().to_owned(),
                    column: step.target_column.clone(),
                })?;
            qs = qs.join_on(&target, &step.base_column, &step.target_column);
            columns.extend(target_cols.clone());

            let (by_pk_template, _) = QuerySet::new(model.clone())
                .join_on(&target, &step.base_column, &step.target_column)
                .filter_eq("id", 0i64)
                .compile();
            let (reverse_template, _) = QuerySet::new(model.clone())
                .filter_eq(&step.base_column, 0i64)
                .compile();
            link_info = Some(LinkInfo {
                target_table: target.table().to_owned(),
                by_pk_template: PreparedSelect::new(by_pk_template),
                reverse_template: PreparedSelect::new(reverse_template),
                target_column_pos,
            });
        }
        for f in &def.where_fields {
            qs = qs.filter_eq(f.clone(), 0i64);
        }

        let mut sort_position = None;
        let mut capacity = 0;
        let mut fill_template = None;
        let (template, columns) = match &def.kind {
            CacheClassKind::Count => {
                let (sel, _) = qs.compile_count();
                (sel, vec!["count".to_owned()])
            }
            CacheClassKind::TopK {
                sort_field,
                order,
                k,
                reserve,
            } => {
                sort_position = Some(base_cols.iter().position(|c| c == sort_field).ok_or_else(
                    || StorageError::UnknownColumn {
                        table: model.table().to_owned(),
                        column: sort_field.clone(),
                    },
                )?);
                capacity = k + reserve;
                let spec = match order {
                    SortOrder::Descending => format!("-{sort_field}"),
                    SortOrder::Ascending => sort_field.clone(),
                };
                let (sel, _) = qs.clone().order_by(&spec).limit(*k as u64).compile();
                let (fill, _) = qs.order_by(&spec).limit(capacity as u64).compile();
                fill_template = Some(PreparedSelect::new(fill));
                (sel, columns)
            }
            _ => {
                let (sel, _) = qs.compile();
                (sel, columns)
            }
        };
        let fingerprint = template.to_string();
        Ok(ObjectInner {
            table: model.table().to_owned(),
            key_positions,
            key_types,
            base_arity: base_cols.len(),
            template: PreparedSelect::new(template),
            fingerprint,
            columns: columns.into(),
            sort_position,
            capacity,
            fill_template,
            link: link_info,
            def,
        })
    }

    /// The cache key for concrete key-field values, each coerced to its
    /// column's type, so a key matches the one its rows render to. `None`
    /// when a value is NULL (`col = NULL` matches no row, and no key may
    /// hold the rows triggers file under NULL) or does not coerce.
    pub fn make_key(&self, values: &[Value]) -> Option<String> {
        let mut key = self.key_prefix();
        for (v, &ty) in values.iter().zip(&self.key_types) {
            let v = v.coerce_to(ty).filter(|v| !v.is_null())?;
            key.push(':');
            render_key_value(&mut key, &v);
        }
        Some(key)
    }

    /// The cache key a main-table row belongs to. A NULL key field
    /// renders as `~`, which no [`ObjectInner::make_key`] key contains, so
    /// such rows are filed under a key nothing reads.
    pub fn key_from_row(&self, row: &Row) -> String {
        let mut key = self.key_prefix();
        for &p in &self.key_positions {
            key.push(':');
            render_key_value(&mut key, row.get(p));
        }
        key
    }

    fn key_prefix(&self) -> String {
        let mut key = String::with_capacity(24 + self.def.name.len());
        key.push_str("cg:");
        key.push_str(&self.def.name);
        key
    }

    /// Whether an UPDATE moved the row between cache keys.
    pub fn key_fields_changed(&self, old: &Row, new: &Row) -> bool {
        self.key_positions.iter().any(|&p| old.get(p) != new.get(p))
    }

    /// Top-K K (0 for other classes).
    pub fn k(&self) -> usize {
        match &self.def.kind {
            CacheClassKind::TopK { k, .. } => *k,
            _ => 0,
        }
    }

    /// TTL for `Expire` strategy fills.
    pub fn fill_ttl(&self) -> Option<u64> {
        match self.def.strategy {
            crate::def::ConsistencyStrategy::Expire { ttl } => Some(ttl),
            _ => None,
        }
    }

    /// Compares two values of the Top-K sort field; `Less` means a row
    /// holding `a` ranks ahead of one holding `b` in the cached list.
    pub fn rank_cmp(&self, a: &Value, b: &Value) -> std::cmp::Ordering {
        match self.def.kind {
            CacheClassKind::TopK {
                order: SortOrder::Descending,
                ..
            } => b.cmp(a),
            _ => a.cmp(b),
        }
    }
}

fn render_key_value(out: &mut String, v: &Value) {
    use std::fmt::Write;
    match v {
        Value::Null => out.push('~'),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            let _ = write!(out, "{f}");
        }
        // Escaped so that no text holds the separator or renders as NULL.
        Value::Text(s) => {
            for c in s.chars() {
                match c {
                    '%' => out.push_str("%25"),
                    ':' => out.push_str("%3A"),
                    '~' => out.push_str("%7E"),
                    c => out.push(c),
                }
            }
        }
        Value::Bool(b) => out.push_str(if *b { "t" } else { "f" }),
        Value::Timestamp(t) => {
            let _ = write!(out, "T{t}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{CacheableDef, SortOrder};
    use genie_orm::{FieldDef, ModelDef, ModelRegistry};
    use genie_storage::{row, ValueType};

    fn registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.register(
            ModelDef::builder("User", "users")
                .field(FieldDef::new("name", ValueType::Text))
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("WallPost", "wall")
                .foreign_key("user_id", "User")
                .field(FieldDef::new("content", ValueType::Text))
                .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("GroupMembership", "membership")
                .foreign_key("user_id", "User")
                .foreign_key("group_id", "Group")
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("Group", "groups")
                .field(FieldDef::new("title", ValueType::Text))
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("Flag", "flags")
                .field(FieldDef::new("on", ValueType::Bool))
                .field(FieldDef::new("weight", ValueType::Float))
                .build(),
        )
        .unwrap();
        reg
    }

    #[test]
    fn feature_compiles_to_matching_template() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::feature("user_posts", "WallPost").where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(
            obj.fingerprint,
            "SELECT * FROM wall WHERE (wall.user_id = $1)"
        );
        assert_eq!(obj.key_positions, vec![1]);
        assert_eq!(*obj.columns, ["id", "user_id", "content", "date_posted"]);
    }

    #[test]
    fn template_matches_application_queryset() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::top_k(
                "latest",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                20,
            )
            .where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        // The application's query with a real value compiles to the same
        // canonical SQL template.
        let (app_sel, app_params) = QuerySet::new(reg.model("WallPost").unwrap().clone())
            .filter_eq("user_id", 42i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        assert_eq!(app_sel.to_string(), obj.fingerprint);
        assert_eq!(app_params, vec![Value::Int(42)]);
    }

    #[test]
    fn count_template_and_columns() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::count("post_count", "WallPost").where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(
            obj.fingerprint,
            "SELECT COUNT(*) FROM wall WHERE (wall.user_id = $1)"
        );
        assert_eq!(*obj.columns, ["count"]);
    }

    #[test]
    fn top_k_capacity_and_fill_template() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::top_k(
                "latest",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                20,
            )
            .where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(obj.capacity, 25);
        assert_eq!(obj.sort_position, Some(3));
        let fill = obj.fill_template.as_ref().unwrap().select();
        assert!(fill.to_string().ends_with("LIMIT 25"), "{fill}");
        assert!(obj.fingerprint.ends_with("LIMIT 20"));
    }

    #[test]
    fn link_compiles_templates() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::link("user_groups", "GroupMembership", "Group", "group_id", "id")
                .where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(
            obj.fingerprint,
            "SELECT * FROM membership JOIN groups ON (groups.id = membership.group_id) WHERE (membership.user_id = $1)"
        );
        let link = obj.link.as_ref().unwrap();
        assert_eq!(link.target_table, "groups");
        assert!(link
            .by_pk_template
            .select()
            .to_string()
            .contains("WHERE (membership.id = $1)"));
        assert_eq!(
            link.reverse_template.select().to_string(),
            "SELECT * FROM membership WHERE (membership.group_id = $1)"
        );
        assert_eq!(obj.columns.len(), 3 + 2); // membership(id,user_id,group_id) + groups(id,title)
    }

    #[test]
    fn key_construction_and_row_extraction() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::feature("posts", "WallPost").where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(obj.make_key(&[Value::Int(42)]).unwrap(), "cg:posts:42");
        // wall row: id, user_id, content, date_posted
        let row = row![7i64, 42i64, "hello", Value::Timestamp(5)];
        assert_eq!(obj.key_from_row(&row), "cg:posts:42");
        let moved = row![7i64, 43i64, "hello", Value::Timestamp(5)];
        assert!(obj.key_fields_changed(&row, &moved));
        assert!(!obj.key_fields_changed(&row, &row.clone()));
    }

    #[test]
    fn multi_field_keys() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::count("membership_count", "GroupMembership")
                .where_fields(&["user_id", "group_id"]),
            &reg,
        )
        .unwrap();
        assert_eq!(
            obj.make_key(&[Value::Int(1), Value::Int(2)]).unwrap(),
            "cg:membership_count:1:2"
        );
    }

    #[test]
    fn key_renders_all_value_types() {
        let reg = registry();
        let key = |model: &str, field: &str, v: Value| {
            ObjectInner::compile(
                CacheableDef::feature("p", model).where_fields(&[field]),
                &reg,
            )
            .unwrap()
            .make_key(&[v])
        };
        let some = |k: &str| Some(k.to_owned());
        assert_eq!(key("WallPost", "user_id", Value::Int(42)), some("cg:p:42"));
        assert_eq!(key("User", "name", "bob".into()), some("cg:p:bob"));
        assert_eq!(key("User", "name", "a:%~".into()), some("cg:p:a%3A%25%7E"));
        assert_eq!(key("Flag", "on", Value::Bool(true)), some("cg:p:t"));
        assert_eq!(key("Flag", "weight", Value::Float(0.5)), some("cg:p:0.5"));
        // Coerced to the column's type, as the engine stores it.
        assert_eq!(key("Flag", "weight", Value::Int(2)), some("cg:p:2"));
        let t9 = some("cg:p:T9");
        assert_eq!(key("WallPost", "date_posted", Value::Timestamp(9)), t9);
        assert_eq!(key("WallPost", "date_posted", Value::Int(9)), t9);
        // NULL and values of another type have no key.
        assert_eq!(key("User", "name", Value::Null), None);
        assert_eq!(key("WallPost", "user_id", "42".into()), None);
        assert_eq!(key("Flag", "on", Value::Int(1)), None);
    }

    #[test]
    fn a_null_key_field_files_the_row_under_a_key_nothing_reads() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::feature("p", "WallPost").where_fields(&["content"]),
            &reg,
        )
        .unwrap();
        let row = row![7i64, 42i64, Value::Null, Value::Timestamp(5)];
        assert_eq!(obj.key_from_row(&row), "cg:p:~");
        assert_eq!(obj.make_key(&["~".into()]).unwrap(), "cg:p:%7E");
    }

    #[test]
    fn rank_cmp_respects_order() {
        let reg = registry();
        let obj = ObjectInner::compile(
            CacheableDef::top_k(
                "latest",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                5,
            )
            .where_fields(&["user_id"]),
            &reg,
        )
        .unwrap();
        let (newer, older) = (Value::Timestamp(100), Value::Timestamp(50));
        assert_eq!(obj.rank_cmp(&newer, &older), std::cmp::Ordering::Less);
    }

    #[test]
    fn unknown_field_rejected() {
        let reg = registry();
        let err = ObjectInner::compile(
            CacheableDef::feature("bad", "WallPost").where_fields(&["nope"]),
            &reg,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn { .. }));
    }

    #[test]
    fn unknown_model_rejected() {
        let reg = registry();
        assert!(ObjectInner::compile(
            CacheableDef::feature("bad", "Ghost").where_fields(&["x"]),
            &reg
        )
        .is_err());
    }
}
