//! Mini-Rails substrate for the Hummingbird evaluation: an in-memory
//! database, a Rails-style inflector, and an ActiveRecord/ActionController
//! framework written *in RubyLite* whose metaprogramming (association and
//! finder generation) exercises exactly the paths the paper's Fig. 1
//! pre-hooks were designed for.
//!
//! # Example
//!
//! ```
//! use hummingbird::Hummingbird;
//! use hb_rails::install_rails;
//!
//! let mut hb = Hummingbird::builder().build();
//! install_rails(&mut hb, true).unwrap();
//! hb.eval(r#"
//! DB.create_table("talks", { "title" => "String" })
//! class Talk < ActiveRecord::Base
//! end
//! Talk.create({ "title" => "JIT checking" })
//! Talk.find(1).title
//! "#)
//! .unwrap();
//! ```

pub mod db;
pub mod inflector;

pub use db::{Database, TableData};

use hb_interp::{ErrorKind, Flow, HbError, Interp, Value};
use hb_syntax::Span;
use hummingbird::Hummingbird;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The ActiveRecord framework source (RubyLite).
pub const ACTIVE_RECORD_SOURCE: &str = include_str!("../framework/active_record.rb");
/// The ActionController + Router framework source (RubyLite).
pub const ACTION_CONTROLLER_SOURCE: &str = include_str!("../framework/action_controller.rb");
/// Framework type annotations and the Fig. 1 association pre-hooks.
pub const RAILS_ANNOTATIONS: &str = include_str!("../framework/annotations.rb");

/// Shared handle to the database (stored as an interpreter extension).
pub struct DbHandle {
    pub db: RefCell<Database>,
}

/// Installs the whole Rails substrate into a Hummingbird system.
///
/// `with_annotations` controls loading the framework annotation file (off
/// for the paper's "Orig" mode, which runs without Hummingbird).
///
/// # Errors
///
/// Fails only if a framework source fails to load — a build defect.
pub fn install_rails(hb: &mut Hummingbird, with_annotations: bool) -> Result<(), HbError> {
    install_inflections(&mut hb.interp);
    install_db(&mut hb.interp);
    install_const_get(&mut hb.interp);
    hb.load_file("<rails/active_record.rb>", ACTIVE_RECORD_SOURCE)?;
    hb.load_file("<rails/action_controller.rb>", ACTION_CONTROLLER_SOURCE)?;
    if with_annotations {
        hb.load_file("<rails/annotations.rb>", RAILS_ANNOTATIONS)?;
    }
    Ok(())
}

/// Fetches the installed database handle.
///
/// # Panics
///
/// Panics if [`install_rails`] has not run.
pub fn db_handle(interp: &Interp) -> Rc<DbHandle> {
    interp
        .extension::<DbHandle>()
        .expect("install_rails must run first")
}

/// Registers the inflection methods on `String`.
pub fn install_inflections(interp: &mut Interp) {
    let string = interp.registry.lookup("String").expect("String exists");
    #[allow(clippy::type_complexity)]
    let fns: Vec<(&str, fn(&str) -> String)> = vec![
        ("singularize", inflector::singularize),
        ("pluralize", inflector::pluralize),
        ("camelize", inflector::camelize),
        ("underscore", inflector::underscore),
        ("tableize", inflector::tableize),
    ];
    for (name, f) in fns {
        interp.define_builtin(
            string,
            name,
            false,
            Rc::new(move |_i, recv, _args, _b| match &recv {
                Value::Str(s) => Ok(Value::str(f(s))),
                other => Err(Flow::Error(HbError::new(
                    ErrorKind::TypeError,
                    format!("inflection on non-string {other:?}"),
                    Span::dummy(),
                ))),
            }),
        );
    }
}

fn str_arg(args: &[Value], i: usize, what: &str) -> Result<String, Flow> {
    match args.get(i) {
        Some(Value::Str(s)) => Ok(s.to_string()),
        Some(Value::Sym(s)) => Ok(s.to_string()),
        other => Err(Flow::Error(HbError::new(
            ErrorKind::ArgumentError,
            format!("{what}: expected string argument, got {other:?}"),
            Span::dummy(),
        ))),
    }
}

fn int_arg(args: &[Value], i: usize, what: &str) -> Result<i64, Flow> {
    match args.get(i) {
        Some(Value::Int(n)) => Ok(*n),
        other => Err(Flow::Error(HbError::new(
            ErrorKind::ArgumentError,
            format!("{what}: expected integer id, got {other:?}"),
            Span::dummy(),
        ))),
    }
}

/// A row as a hash keyed by column name, in the order of the keys' quoted
/// (`Debug`) spellings. Each key is quoted once, not once per comparison.
fn row_to_hash(row: HashMap<String, Value>) -> Value {
    let mut pairs: Vec<(Value, Value)> = row.into_iter().map(|(k, v)| (Value::str(k), v)).collect();
    pairs.sort_by_cached_key(|(k, _)| format!("{k:?}"));
    Value::hash_from(pairs)
}

fn hash_to_row(v: &Value, what: &str) -> Result<HashMap<String, Value>, Flow> {
    match v {
        Value::Hash(h) => {
            let mut out = HashMap::new();
            for (k, val) in h.borrow().iter() {
                let key = match k {
                    Value::Str(s) => s.to_string(),
                    Value::Sym(s) => s.to_string(),
                    other => {
                        return Err(Flow::Error(HbError::new(
                            ErrorKind::ArgumentError,
                            format!("{what}: attribute keys must be strings, got {other:?}"),
                            Span::dummy(),
                        )))
                    }
                };
                out.insert(key, val.clone());
            }
            Ok(out)
        }
        Value::Nil => Ok(HashMap::new()),
        other => Err(Flow::Error(HbError::new(
            ErrorKind::ArgumentError,
            format!("{what}: expected attributes hash, got {other:?}"),
            Span::dummy(),
        ))),
    }
}

/// Registers the `DB` class with its native query methods.
pub fn install_db(interp: &mut Interp) {
    let handle = Rc::new(DbHandle {
        db: RefCell::new(Database::new()),
    });
    interp.set_extension(handle.clone());
    let db_class = interp.define_class("DB", None);

    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "create_table",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.create_table")?;
            let schema_hash = hash_to_row(args.get(1).unwrap_or(&Value::Nil), "DB.create_table")?;
            let mut schema: Vec<(String, String)> = schema_hash
                .into_iter()
                .map(|(k, v)| {
                    let t = match v {
                        Value::Str(s) => s.to_string(),
                        other => format!("{other:?}"),
                    };
                    (k, t)
                })
                .collect();
            schema.sort();
            h.db.borrow_mut().create_table(&name, schema);
            Ok(Value::Nil)
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "columns",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.columns")?;
            let cols = h.db.borrow().columns(&name);
            Ok(Value::hash_from(
                cols.into_iter()
                    .map(|(c, t)| (Value::str(c), Value::str(t)))
                    .collect(),
            ))
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "insert",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.insert")?;
            let row = hash_to_row(args.get(1).unwrap_or(&Value::Nil), "DB.insert")?;
            match h.db.borrow_mut().insert(&name, row) {
                Some(id) => Ok(Value::Int(id)),
                None => Err(Flow::Error(HbError::new(
                    ErrorKind::ArgumentError,
                    format!("DB.insert: no table {name}"),
                    Span::dummy(),
                ))),
            }
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "update",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.update")?;
            let id = int_arg(&args, 1, "DB.update")?;
            let row = hash_to_row(args.get(2).unwrap_or(&Value::Nil), "DB.update")?;
            Ok(Value::Bool(h.db.borrow_mut().update(&name, id, &row)))
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "delete",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.delete")?;
            let id = int_arg(&args, 1, "DB.delete")?;
            Ok(Value::Bool(h.db.borrow_mut().delete(&name, id)))
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "find",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.find")?;
            let id = int_arg(&args, 1, "DB.find")?;
            Ok(match h.db.borrow().find(&name, id) {
                Some(row) => row_to_hash(row),
                None => Value::Nil,
            })
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "all",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.all")?;
            Ok(Value::array(
                h.db.borrow()
                    .all(&name)
                    .into_iter()
                    .map(row_to_hash)
                    .collect(),
            ))
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "where",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.where")?;
            let col = str_arg(&args, 1, "DB.where")?;
            let val = args.get(2).cloned().unwrap_or(Value::Nil);
            Ok(Value::array(
                h.db.borrow()
                    .where_eq(&name, &col, &val)
                    .into_iter()
                    .map(row_to_hash)
                    .collect(),
            ))
        }),
    );
    let h = handle.clone();
    interp.define_builtin(
        db_class,
        "count",
        true,
        Rc::new(move |_i, _recv, args, _b| {
            let name = str_arg(&args, 0, "DB.count")?;
            Ok(Value::Int(h.db.borrow().count(&name) as i64))
        }),
    );
    let h = handle;
    interp.define_builtin(
        db_class,
        "clear",
        true,
        Rc::new(move |_i, _recv, _args, _b| {
            h.db.borrow_mut().clear_rows();
            Ok(Value::Nil)
        }),
    );
}

/// Registers `Object.const_get` (used by generated association methods).
pub fn install_const_get(interp: &mut Interp) {
    let object = interp.registry.object();
    interp.define_builtin(
        object,
        "const_get",
        true,
        Rc::new(|i, _recv, args, _b| {
            let name = str_arg(&args, 0, "const_get")?;
            i.constant(&name).ok_or_else(|| {
                Flow::Error(HbError::new(
                    ErrorKind::NameError,
                    format!("uninitialized constant {name}"),
                    Span::dummy(),
                ))
            })
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rails_hb() -> Hummingbird {
        let mut hb = Hummingbird::builder().build();
        install_rails(&mut hb, true).unwrap();
        hb
    }

    fn eval_s(hb: &mut Hummingbird, src: &str) -> String {
        match hb.eval(src).unwrap_or_else(|e| panic!("{e}")) {
            Value::Str(s) => s.to_string(),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn model_crud_roundtrip() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("talks", { "title" => "String", "owner_id" => "Fixnum" })
class Talk < ActiveRecord::Base
end
t = Talk.new({ "title" => "JIT" })
t.save
"#,
        )
        .unwrap();
        assert_eq!(eval_s(&mut hb, "Talk.find(1).title"), "JIT");
        hb.eval("Talk.find(1).update_attribute(\"title\", \"JIT2\")")
            .unwrap();
        assert_eq!(eval_s(&mut hb, "Talk.first.title"), "JIT2");
        hb.eval("Talk.find(1).destroy").unwrap();
        let err = hb.eval("Talk.find(1)").unwrap_err();
        assert_eq!(err.class_name(), "RecordNotFound");
    }

    #[test]
    fn row_hash_keys_follow_their_quoted_spelling() {
        // Quoted, `"name!"` sorts before `"name"` ('!' < '"'); raw, it
        // sorts after. Every query returns the quoted order.
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("cols", { "title" => "String", "name" => "String", "name!" => "String", "a b" => "String" })
DB.insert("cols", { "name" => "n", "name!" => "bang" })
"#,
        )
        .unwrap();
        let expected = r#"["a b", "id", "name!", "name", "title"]"#;
        for query in [
            "DB.find(\"cols\", 1).keys",
            "DB.all(\"cols\")[0].keys",
            "DB.where(\"cols\", \"name\", \"n\")[0].keys",
        ] {
            let keys = hb.eval(query).unwrap();
            assert_eq!(format!("{keys:?}"), expected, "{query}");
        }
    }

    #[test]
    fn attribute_methods_come_from_schema() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("users", { "email" => "String" })
class User < ActiveRecord::Base
end
u = User.create({ "email" => "a@b.c" })
u.email = "x@y.z"
u.save
"#,
        )
        .unwrap();
        assert_eq!(eval_s(&mut hb, "User.find(1).email"), "x@y.z");
    }

    #[test]
    fn belongs_to_and_has_many_associations() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("users", { "name" => "String" })
DB.create_table("talks", { "title" => "String", "owner_id" => "Fixnum" })
class User < ActiveRecord::Base
  has_many :talks, { :class_name => "Talk" }
end
class Talk < ActiveRecord::Base
  belongs_to :owner, { :class_name => "User" }
end
u = User.create({ "name" => "alice" })
t = Talk.create({ "title" => "one", "owner_id" => 1 })
"#,
        )
        .unwrap();
        assert_eq!(eval_s(&mut hb, "Talk.find(1).owner.name"), "alice");
        // has_many uses the owning class's foreign key (user_id), so wire
        // one up explicitly for the reverse direction.
        hb.eval(
            r#"
DB.create_table("posts", { "body" => "String", "user_id" => "Fixnum" })
class Post < ActiveRecord::Base
end
class User < ActiveRecord::Base
  has_many :posts
end
Post.create({ "body" => "hi", "user_id" => 1 })
"#,
        )
        .unwrap();
        assert_eq!(eval_s(&mut hb, "User.find(1).posts.first.body"), "hi");
    }

    #[test]
    fn dynamic_finders_via_method_missing() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("users", { "name" => "String" })
class User < ActiveRecord::Base
end
User.create({ "name" => "alice" })
User.create({ "name" => "bob" })
"#,
        )
        .unwrap();
        assert_eq!(eval_s(&mut hb, "User.find_by_name(\"bob\").name"), "bob");
        match hb.eval("User.find_all_by_name(\"alice\").size").unwrap() {
            Value::Int(1) => {}
            other => panic!("{other:?}"),
        }
        let err = hb.eval("User.find_by_name(\"nobody\")").unwrap_err();
        assert_eq!(err.class_name(), "RecordNotFound");
    }

    #[test]
    fn fig1_pre_hook_generates_association_types() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("users", { "name" => "String" })
DB.create_table("talks", { "title" => "String", "owner_id" => "Fixnum" })
class User < ActiveRecord::Base
end
class Talk < ActiveRecord::Base
  belongs_to :owner, { :class_name => "User" }
end
"#,
        )
        .unwrap();
        // The Fig. 1 pre-hook generated Talk#owner : () -> User.
        let key = hummingbird::MethodKey::instance("Talk", "owner");
        let entry = hb.rdl.entry(&key).expect("owner type generated");
        assert_eq!(entry.sig.to_string(), "() -> User");
        let setter = hummingbird::MethodKey::instance("Talk", "owner=");
        assert_eq!(
            hb.rdl.entry(&setter).unwrap().sig.to_string(),
            "(User) -> User"
        );
        // And they are dynamically generated in the paper's sense.
        assert!(hb.rdl_stats().dynamic_generated >= 2);
    }

    #[test]
    fn fig1_owner_check_end_to_end() {
        // The paper's Fig. 1: Talk#owner? statically checks against the
        // dynamically generated type of Talk#owner.
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("users", { "name" => "String" })
DB.create_table("talks", { "title" => "String", "owner_id" => "Fixnum" })
class User < ActiveRecord::Base
end
class Talk < ActiveRecord::Base
  belongs_to :owner, { :class_name => "User" }
  type :owner?, "(User) -> %bool", { "check" => true }
  def owner?(user)
    return owner == user
  end
end
annotate_model(User)
annotate_model(Talk)
u = User.create({ "name" => "alice" })
t = Talk.create({ "title" => "x", "owner_id" => 1 })
t.owner?(u)
"#,
        )
        .unwrap();
        assert!(hb.stats().checked_methods.contains("Talk#owner?"));
        // The result is true (owner is alice).
        match hb.eval("Talk.find(1).owner?(User.find(1))").unwrap() {
            Value::Bool(true) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn annotate_model_generates_schema_types() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("talks", { "title" => "String", "owner_id" => "Fixnum" })
class Talk < ActiveRecord::Base
end
annotate_model(Talk)
"#,
        )
        .unwrap();
        let title = hummingbird::MethodKey::instance("Talk", "title");
        assert_eq!(
            hb.rdl.entry(&title).unwrap().sig.to_string(),
            "() -> String"
        );
        let find = hummingbird::MethodKey::class_level("Talk", "find");
        assert_eq!(
            hb.rdl.entry(&find).unwrap().sig.to_string(),
            "(Fixnum) -> Talk"
        );
        let finder = hummingbird::MethodKey::class_level("Talk", "find_by_title");
        assert_eq!(
            hb.rdl.entry(&finder).unwrap().sig.to_string(),
            "(String) -> Talk"
        );
    }

    #[test]
    fn controllers_and_router_dispatch() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("talks", { "title" => "String" })
class Talk < ActiveRecord::Base
end
Talk.create({ "title" => "first" })
class TalksController < ActionController::Base
  def index
    names = Talk.all.map { |t| t.title }
    render(names.join(","))
  end
  def show
    t = Talk.find(params[:id])
    render(t.title)
  end
end
$router = Router.new
$router.draw("GET", "/talks", TalksController, :index)
$router.draw("GET", "/talks/show", TalksController, :show)
"#,
        )
        .unwrap();
        assert_eq!(
            eval_s(&mut hb, "$router.dispatch(\"GET\", \"/talks\")"),
            "first"
        );
        assert_eq!(
            eval_s(
                &mut hb,
                "$router.dispatch(\"GET\", \"/talks/show\", { :id => 1 })"
            ),
            "first"
        );
        let err = hb.eval("$router.dispatch(\"GET\", \"/nope\")").unwrap_err();
        assert_eq!(err.class_name(), "RecordNotFound");
    }

    #[test]
    fn db_clear_resets_between_runs() {
        let mut hb = rails_hb();
        hb.eval(
            r#"
DB.create_table("talks", { "title" => "String" })
class Talk < ActiveRecord::Base
end
Talk.create({ "title" => "a" })
DB.clear
"#,
        )
        .unwrap();
        match hb.eval("Talk.count").unwrap() {
            Value::Int(0) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn original_mode_runs_framework_without_annotations() {
        let mut hb = Hummingbird::builder()
            .mode(hummingbird::Mode::Original)
            .build();
        install_rails(&mut hb, false).unwrap();
        hb.eval(
            r#"
DB.create_table("talks", { "title" => "String" })
class Talk < ActiveRecord::Base
  belongs_to :owner
end
Talk.create({ "title" => "x" })
"#,
        )
        .unwrap();
        assert_eq!(hb.stats().checks_performed, 0);
        assert_eq!(hb.rdl_stats().total, 0);
    }
}
