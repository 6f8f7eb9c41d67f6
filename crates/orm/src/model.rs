//! Model metadata: the ORM's description of application data.
//!
//! A [`ModelDef`] corresponds to a Django model: a named entity backed by
//! one table, with typed fields, foreign keys to other models, and an
//! implicit integer primary key `id`. The registry turns model definitions
//! into storage schemas (Django's `syncdb`).

use genie_storage::{ColumnDef, Database, IndexDef, Result, StorageError, TableSchema, ValueType};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scalar field of a model (the implicit `id` is not listed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
    /// NOT NULL.
    pub not_null: bool,
    /// UNIQUE (implies an index).
    pub unique: bool,
    /// Secondary index requested.
    pub indexed: bool,
}

impl FieldDef {
    /// A nullable, unindexed field.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            not_null: false,
            unique: false,
            indexed: false,
        }
    }

    /// Marks NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Marks UNIQUE.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Requests a secondary index.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// A foreign key field: an integer column referencing another model's `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKeyField {
    /// Column name (Django convention: `<relation>_id`).
    pub column: String,
    /// Referenced model name.
    pub ref_model: String,
    /// NOT NULL.
    pub not_null: bool,
}

/// A model definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDef {
    name: String,
    table: String,
    fields: Vec<FieldDef>,
    foreign_keys: Vec<ForeignKeyField>,
    index_together: Vec<Vec<String>>,
}

impl ModelDef {
    /// Starts building a model `name` stored in `table`.
    pub fn builder(name: impl Into<String>, table: impl Into<String>) -> ModelDefBuilder {
        ModelDefBuilder {
            name: name.into(),
            table: table.into(),
            fields: Vec::new(),
            foreign_keys: Vec::new(),
            index_together: Vec::new(),
        }
    }

    /// Model name (e.g. `Profile`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Backing table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Scalar fields (excluding `id` and FK columns).
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKeyField] {
        &self.foreign_keys
    }

    /// Composite indexes (Django's `index_together`).
    pub fn index_together(&self) -> &[Vec<String>] {
        &self.index_together
    }

    /// All column names in schema order: `id`, FK columns, scalar fields.
    pub fn columns(&self) -> Vec<String> {
        let mut out = vec!["id".to_owned()];
        out.extend(self.foreign_keys.iter().map(|f| f.column.clone()));
        out.extend(self.fields.iter().map(|f| f.name.clone()));
        out
    }

    /// Builds the storage schema for this model.
    pub fn to_schema(&self) -> Result<TableSchema> {
        let mut b = TableSchema::builder(&self.table).pk("id");
        for fk in &self.foreign_keys {
            let mut col = ColumnDef::new(&fk.column, ValueType::Int);
            if fk.not_null {
                col = col.not_null();
            }
            b = b.column(col);
        }
        for f in &self.fields {
            let mut col = ColumnDef::new(&f.name, f.ty);
            if f.not_null {
                col = col.not_null();
            }
            if f.unique {
                col = col.unique();
            }
            b = b.column(col);
        }
        for fk in &self.foreign_keys {
            // Referenced table resolved by the registry at sync time; the
            // FK def stores the model name and is rewritten there.
            b = b.foreign_key(&fk.column, format!("@model:{}", fk.ref_model), "id");
        }
        b.build()
    }
}

/// Builder for [`ModelDef`].
#[derive(Debug, Clone)]
pub struct ModelDefBuilder {
    name: String,
    table: String,
    fields: Vec<FieldDef>,
    foreign_keys: Vec<ForeignKeyField>,
    index_together: Vec<Vec<String>>,
}

impl ModelDefBuilder {
    /// Adds a scalar field.
    pub fn field(mut self, field: FieldDef) -> Self {
        self.fields.push(field);
        self
    }

    /// Adds a NOT NULL foreign key `column` referencing `ref_model.id`.
    pub fn foreign_key(mut self, column: impl Into<String>, ref_model: impl Into<String>) -> Self {
        self.foreign_keys.push(ForeignKeyField {
            column: column.into(),
            ref_model: ref_model.into(),
            not_null: true,
        });
        self
    }

    /// Adds a nullable foreign key.
    pub fn foreign_key_nullable(
        mut self,
        column: impl Into<String>,
        ref_model: impl Into<String>,
    ) -> Self {
        self.foreign_keys.push(ForeignKeyField {
            column: column.into(),
            ref_model: ref_model.into(),
            not_null: false,
        });
        self
    }

    /// Declares a composite index over `columns`, in key order (Django's
    /// `index_together`). The planner uses it for equality-prefix, range,
    /// and ORDER BY-satisfying scans.
    pub fn index_together<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.index_together
            .push(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Finalizes the definition.
    pub fn build(self) -> ModelDef {
        ModelDef {
            name: self.name,
            table: self.table,
            fields: self.fields,
            foreign_keys: self.foreign_keys,
            index_together: self.index_together,
        }
    }
}

/// A set of models that sync together (one Django "app", or several).
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    /// Shared, so a query set over a model holds a reference instead of
    /// a copy of the definition.
    models: BTreeMap<String, Arc<ModelDef>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers a model.
    ///
    /// # Errors
    ///
    /// [`StorageError::AlreadyExists`] for duplicate model names.
    pub fn register(&mut self, model: ModelDef) -> Result<()> {
        if self.models.contains_key(model.name()) {
            return Err(StorageError::AlreadyExists(model.name().to_owned()));
        }
        self.models.insert(model.name().to_owned(), Arc::new(model));
        Ok(())
    }

    /// Looks up a model by name.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] if absent.
    pub fn model(&self, name: &str) -> Result<&ModelDef> {
        self.shared_model(name).map(|m| &**m)
    }

    /// [`ModelRegistry::model`], as the shared handle.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] if absent.
    pub fn shared_model(&self, name: &str) -> Result<&Arc<ModelDef>> {
        self.models
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(format!("model {name}")))
    }

    /// All registered models, sorted by name.
    pub fn models(&self) -> impl Iterator<Item = &ModelDef> {
        self.models.values().map(|m| &**m)
    }

    /// Creates every model's table, foreign keys, and indexes in `db`
    /// (Django's `syncdb`). Tables are created before FK constraints are
    /// meaningful, so models may reference each other freely.
    ///
    /// Idempotent over an existing catalog: tables and indexes that are
    /// already present are left alone, so `sync` is safe to run against
    /// a database recovered from its write-ahead log (whose catalog was
    /// rebuilt by replay) as well as a fresh one.
    ///
    /// # Errors
    ///
    /// Schema or FK resolution errors; unknown referenced models report
    /// [`StorageError::UnknownTable`].
    pub fn sync(&self, db: &Database) -> Result<()> {
        // Resolve FK model references to table names.
        for model in self.models.values() {
            let schema = model.to_schema()?;
            let mut b = TableSchema::builder(model.table()).pk("id");
            for col in schema.columns().iter().skip(1) {
                b = b.column(col.clone());
            }
            for fk in model.foreign_keys() {
                let target = self.model(&fk.ref_model)?;
                b = b.foreign_key(&fk.column, target.table(), "id");
            }
            match db.create_table(b.build()?) {
                Ok(()) | Err(StorageError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Secondary indexes: FK columns (Django indexes FKs automatically)
        // plus explicitly indexed fields.
        fn ensure_index(db: &Database, table: &str, def: IndexDef) -> Result<()> {
            match db.create_index(table, def) {
                Ok(()) | Err(StorageError::AlreadyExists(_)) => Ok(()),
                Err(e) => Err(e),
            }
        }
        for model in self.models.values() {
            for fk in model.foreign_keys() {
                ensure_index(
                    db,
                    model.table(),
                    IndexDef {
                        name: format!("{}_{}_idx", model.table(), fk.column),
                        columns: vec![fk.column.clone()],
                        unique: false,
                    },
                )?;
            }
            for f in model.fields() {
                if f.indexed && !f.unique {
                    ensure_index(
                        db,
                        model.table(),
                        IndexDef {
                            name: format!("{}_{}_idx", model.table(), f.name),
                            columns: vec![f.name.clone()],
                            unique: false,
                        },
                    )?;
                }
            }
            for cols in model.index_together() {
                ensure_index(
                    db,
                    model.table(),
                    IndexDef {
                        name: format!("{}_{}_idx", model.table(), cols.join("_")),
                        columns: cols.clone(),
                        unique: false,
                    },
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_model() -> ModelDef {
        ModelDef::builder("User", "users")
            .field(
                FieldDef::new("username", ValueType::Text)
                    .not_null()
                    .unique(),
            )
            .field(FieldDef::new("joined", ValueType::Timestamp).not_null())
            .build()
    }

    fn profile_model() -> ModelDef {
        ModelDef::builder("Profile", "profiles")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("bio", ValueType::Text))
            .field(FieldDef::new("location", ValueType::Text).indexed())
            .build()
    }

    #[test]
    fn columns_in_schema_order() {
        let m = profile_model();
        assert_eq!(m.columns(), vec!["id", "user_id", "bio", "location"]);
    }

    #[test]
    fn sync_creates_tables_and_indexes() {
        let mut reg = ModelRegistry::new();
        reg.register(user_model()).unwrap();
        reg.register(profile_model()).unwrap();
        let db = Database::default();
        reg.sync(&db).unwrap();
        assert_eq!(
            db.table_names(),
            vec!["profiles".to_string(), "users".to_string()]
        );
        // FK columns are indexed: a filtered select must not full-scan.
        db.execute_sql("INSERT INTO users VALUES (1, 'alice', TS(0))", &[])
            .unwrap();
        db.execute_sql("INSERT INTO profiles VALUES (1, 1, 'hi', 'cambridge')", &[])
            .unwrap();
        let out = db
            .execute_sql("SELECT * FROM profiles WHERE user_id = 1", &[])
            .unwrap();
        assert_eq!(out.cost.index_probes, 1);
        assert_eq!(out.result.rows.len(), 1);
    }

    #[test]
    fn fk_enforced_after_sync() {
        let mut reg = ModelRegistry::new();
        reg.register(user_model()).unwrap();
        reg.register(profile_model()).unwrap();
        let db = Database::default();
        reg.sync(&db).unwrap();
        let err = db
            .execute_sql("INSERT INTO profiles VALUES (1, 99, 'x', 'y')", &[])
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn unknown_fk_model_rejected_at_sync() {
        let mut reg = ModelRegistry::new();
        reg.register(profile_model()).unwrap(); // references User, absent
        let db = Database::default();
        assert!(reg.sync(&db).is_err());
    }

    #[test]
    fn duplicate_model_rejected() {
        let mut reg = ModelRegistry::new();
        reg.register(user_model()).unwrap();
        assert!(reg.register(user_model()).is_err());
    }

    #[test]
    fn unique_field_enforced() {
        let mut reg = ModelRegistry::new();
        reg.register(user_model()).unwrap();
        let db = Database::default();
        reg.sync(&db).unwrap();
        db.execute_sql("INSERT INTO users VALUES (1, 'bob', TS(0))", &[])
            .unwrap();
        assert!(db
            .execute_sql("INSERT INTO users VALUES (2, 'bob', TS(0))", &[])
            .is_err());
    }
}
