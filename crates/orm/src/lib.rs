//! # genie-orm
//!
//! A Django-flavoured object-relational mapper over [`genie_storage`],
//! standing in for Django 1.2 in the CacheGenie reproduction. It provides
//! the three things the paper's middleware needs from the ORM:
//!
//! 1. **Models** ([`ModelDef`], [`ModelRegistry`]) — declarative schema
//!    with foreign keys, synced to the database (`syncdb`);
//! 2. **Query sets** ([`QuerySet`]) that compile to *canonical,
//!    parameterized* SQL templates — structurally identical queries yield
//!    identical [`genie_storage::Select`]s, which is what makes
//!    transparent cache interception possible;
//! 3. the **interceptor seam** ([`QueryInterceptor`], installed on an
//!    [`OrmSession`]) that lets CacheGenie serve matching reads from the
//!    cache and read-through-fill on misses, exactly as in Figure 1c of
//!    the paper.
//!
//! # Example
//!
//! ```
//! use genie_orm::{ModelDef, FieldDef, ModelRegistry, OrmSession};
//! use genie_storage::{Database, ValueType, Value};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), genie_storage::StorageError> {
//! let mut registry = ModelRegistry::new();
//! registry.register(
//!     ModelDef::builder("User", "users")
//!         .field(FieldDef::new("name", ValueType::Text).not_null())
//!         .build(),
//! )?;
//! let db = Database::default();
//! registry.sync(&db)?;
//!
//! let session = OrmSession::new(db, Arc::new(registry));
//! let id = session.create("User", &[("name", "alice".into())])?.new_id.unwrap();
//! let (row, _) = session.get_by_id("User", id)?;
//! assert_eq!(row.unwrap().get("name"), &Value::Text("alice".into()));
//! # Ok(())
//! # }
//! ```

pub mod model;
pub mod queryset;
pub mod session;

pub use model::{FieldDef, ForeignKeyField, ModelDef, ModelDefBuilder, ModelRegistry};
pub use queryset::{FilterOp, OrmRow, QuerySet};
pub use session::{
    InterceptOutcome, OrmSession, PreparedQuery, QueryInterceptor, ReadOutcome, WriteOutcome,
};
