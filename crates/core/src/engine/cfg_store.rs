//! The per-thread CFG store: one lowering per method body per thread.
//!
//! Every path that needs a body's control-flow graph takes it from here
//! through [`entry_cfg`]: the first-call check, the scheduler's check
//! tasks, the engine's one same-body decision when a method is redefined
//! (which takes both the retired and the new entry's CFG) and the
//! whole-program analyses. A store entry is keyed by the body node
//! itself:
//!
//! - a `def` by its `Rc<MethodDefNode>`, which the thread's program store
//!   ([`hb_syntax::store`]) hands to every tenant that loads the same file
//!   text at the same file id, so those tenants share one
//!   `Arc<MethodCfg>` per definition instead of lowering it each;
//! - a `define_method` proc by its body, the `Rc` every proc made from
//!   one block literal shares (with that literal's parameters and span).
//!
//! An entry holds its node, so the address it is keyed by cannot be
//! reused while the entry lives. Lowering is a pure function of the
//! node, so a stored CFG is exactly what a fresh lowering would return,
//! spans included: a redefinition with new text is a new node and gets a
//! CFG of its own whose spans point at the new text.
//!
//! The store is per thread because the AST is built on `Rc`; the CFGs
//! are `Arc`s, so a scheduler task still carries its CFG to a worker.
//! It keeps at most [`CFG_STORE_CAPACITY`] CFGs (a constant): a miss
//! beyond that evicts the least recently used one.

use hb_il::{lower_block_body, lower_method, MethodCfg};
use hb_intern::FastMap;
use hb_interp::{MethodBody, MethodEntry};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Most CFGs one thread's store keeps. The tenant-lifecycle benchmark,
/// which boots and serves the six subject apps in both modes on both
/// tiers and reloads every Talks version, lowers 160 bodies on its one
/// thread (163 when traced, which also runs `check_all`).
pub const CFG_STORE_CAPACITY: usize = 512;

/// The calling thread's store counters (see [`cfg_store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfgStoreStats {
    /// Bodies answered from the store.
    pub hits: u64,
    /// Bodies lowered.
    pub misses: u64,
    /// CFGs held now (at most [`CFG_STORE_CAPACITY`]).
    pub cfgs: usize,
}

struct Stored {
    /// The node the entry is keyed by, held so its address stays its own.
    _node: Rc<dyn Any>,
    cfg: Arc<MethodCfg>,
    last_use: u64,
}

#[derive(Default)]
struct Store {
    /// By the address of the keyed node.
    cfgs: FastMap<usize, Stored>,
    /// Advances on every lookup; orders entries for eviction.
    clock: u64,
    stats: CfgStoreStats,
}

impl Store {
    fn hit(&mut self, key: usize) -> Option<Arc<MethodCfg>> {
        self.clock += 1;
        let Some(hit) = self.cfgs.get_mut(&key) else {
            self.stats.misses += 1;
            return None;
        };
        hit.last_use = self.clock;
        self.stats.hits += 1;
        Some(hit.cfg.clone())
    }

    fn insert(&mut self, key: usize, node: Rc<dyn Any>, cfg: Arc<MethodCfg>) {
        if self.cfgs.len() >= CFG_STORE_CAPACITY {
            let oldest = self
                .cfgs
                .iter()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| *k)
                .expect("the store is full");
            self.cfgs.remove(&oldest);
        }
        self.cfgs.insert(
            key,
            Stored {
                _node: node,
                cfg,
                last_use: self.clock,
            },
        );
        self.stats.cfgs = self.cfgs.len();
    }
}

thread_local! {
    static STORE: RefCell<Store> = RefCell::new(Store::default());
}

/// The stored CFG of `node`, or `lower()`'s, stored on a miss.
fn stored<T: 'static>(node: &Rc<T>, lower: impl FnOnce() -> MethodCfg) -> Arc<MethodCfg> {
    let key = Rc::as_ptr(node) as usize;
    if let Some(cfg) = STORE.with(|s| s.borrow_mut().hit(key)) {
        return cfg;
    }
    let cfg = Arc::new(lower());
    STORE.with(|s| s.borrow_mut().insert(key, node.clone(), cfg.clone()));
    cfg
}

/// The CFG of a method entry's body from the calling thread's store
/// (`None` for builtins, which have no body to lower): the one lowering
/// the checker, the same-body decision and the whole-program analyses
/// share.
pub(crate) fn entry_cfg(entry: &MethodEntry) -> Option<Arc<MethodCfg>> {
    match &entry.body {
        MethodBody::Ast(def) => Some(stored(def, || lower_method(def))),
        MethodBody::FromProc(p) => Some(stored(&p.body, || {
            lower_block_body(&p.params, &p.body, p.span)
        })),
        MethodBody::Builtin(_) => None,
    }
}

/// The calling thread's store counters.
pub fn cfg_store_stats() -> CfgStoreStats {
    STORE.with(|s| s.borrow().stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hummingbird;
    use hb_il::collect_method_defs;
    use hb_syntax::ast::MethodDefNode;
    use hb_syntax::{parse_program, Span};

    /// The stored CFG of a `def`.
    fn def_cfg(def: &Rc<MethodDefNode>) -> Arc<MethodCfg> {
        stored(def, || lower_method(def))
    }

    /// Hits and misses since `before`.
    fn delta(before: CfgStoreStats) -> (u64, u64) {
        let now = cfg_store_stats();
        (now.hits - before.hits, now.misses - before.misses)
    }

    /// A tenant that loads `src` as `file` and calls `CfgProbe.new.m(1)`,
    /// which `src` annotates for checking.
    fn tenant(file: &str, src: &str) -> Hummingbird {
        let mut hb = Hummingbird::builder().build();
        hb.load_file(file, src).expect("the file loads");
        hb.eval("CfgProbe.new.m(1)").expect("the call checks");
        hb
    }

    fn probe_src(body: &str) -> String {
        format!(
            "class CfgProbe\n  type :m, \"(Fixnum) -> Fixnum\", {{ \"check\" => true }}\n\
             {body}\nend\n"
        )
    }

    /// The CFG the tenant's `CfgProbe#m` is checked against, from the
    /// store, and the definition it belongs to.
    fn checked(hb: &Hummingbird) -> (Arc<MethodCfg>, Rc<MethodDefNode>) {
        let cid = hb.interp.registry.lookup("CfgProbe").expect("the class");
        let (_, entry) = hb.interp.registry.find_method(cid, "m").expect("m");
        let cfg = entry_cfg(&entry).expect("m has a body");
        match entry.body {
            MethodBody::Ast(def) => (cfg, def),
            _ => panic!("m is a def"),
        }
    }

    /// The source text a span covers in `hb`'s source map.
    fn text(hb: &Hummingbird, span: Span) -> String {
        let file = hb.source_map().file(span.file).expect("the file");
        file.text[span.lo as usize..span.hi as usize].to_string()
    }

    /// Distinct definitions, each from a program of its own.
    fn defs(n: usize) -> Vec<Rc<MethodDefNode>> {
        (0..n)
            .map(|i| {
                let src = format!("def cfg_bound_{i}(x)\n  x + {i}\nend\n");
                let program = parse_program(&src, "bound.rb").expect("parses");
                collect_method_defs(&program).remove(0).def
            })
            .collect()
    }

    #[test]
    fn tenants_on_one_thread_share_a_definitions_cfg() {
        let src = probe_src("  def m(x)\n    x + 1\n  end");
        let before = cfg_store_stats();
        let (a, b) = (tenant("shared.rb", &src), tenant("shared.rb", &src));
        let lowered = delta(before);
        let ((cfg_a, def_a), (cfg_b, def_b)) = (checked(&a), checked(&b));
        assert!(
            Rc::ptr_eq(&def_a, &def_b),
            "the program store shares the def"
        );
        assert!(Arc::ptr_eq(&cfg_a, &cfg_b), "so the tenants share its CFG");
        assert_eq!(lowered, (1, 1), "lowered once, for the first tenant");
        assert_eq!(
            *cfg_a,
            lower_method(&def_a),
            "the CFG a fresh lowering makes"
        );
    }

    #[test]
    fn a_redefinition_with_new_text_gets_a_cfg_of_its_own() {
        let old = probe_src("  def m(x)\n    x + 1\n  end");
        let mut hb = tenant("redef.rb", &old);
        let (first, _) = checked(&hb);
        // Same shape, moved by a line: the derivation is kept, and the
        // new entry's CFG is the new text's.
        let moved = probe_src("\n  def m(x)\n    x + 1\n  end");
        hb.reload_file("redef.rb", &moved).expect("reloads");
        hb.eval("CfgProbe.new.m(1)").expect("runs");
        let (same_shape, def) = checked(&hb);
        assert!(!Arc::ptr_eq(&first, &same_shape));
        assert!(same_shape.same_shape(&first));
        assert_eq!(same_shape.span, def.span);
        assert_ne!(same_shape.span, first.span);
        // A changed body is re-checked against its own CFG.
        let changed = probe_src("  def m(x)\n    x * 2\n  end");
        hb.reload_file("redef.rb", &changed).expect("reloads");
        hb.eval("CfgProbe.new.m(1)").expect("runs");
        let (fresh, def) = checked(&hb);
        assert!(!fresh.same_shape(&first));
        assert_eq!(*fresh, lower_method(&def));
        assert_eq!(text(&hb, fresh.span), "def m(x)\n    x * 2\n  end");
    }

    #[test]
    fn store_stays_within_its_bound_and_evicts_the_oldest() {
        let defs = defs(CFG_STORE_CAPACITY + 40);
        let first = def_cfg(&defs[0]);
        for def in &defs[1..] {
            def_cfg(def);
            assert!(cfg_store_stats().cfgs <= CFG_STORE_CAPACITY);
        }
        assert_eq!(cfg_store_stats().cfgs, CFG_STORE_CAPACITY);
        let before = cfg_store_stats();
        def_cfg(defs.last().expect("defs"));
        assert_eq!(delta(before), (1, 0), "the newest body is kept");
        let before = cfg_store_stats();
        let again = def_cfg(&defs[0]);
        assert_eq!(delta(before), (0, 1), "the oldest body was evicted");
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
        assert_eq!(cfg_store_stats().cfgs, CFG_STORE_CAPACITY);
    }

    #[test]
    fn another_threads_store_is_independent() {
        let mine = def_cfg(&defs(1)[0]);
        let before = cfg_store_stats();
        let (theirs, stats) = std::thread::spawn(|| (def_cfg(&defs(1)[0]), cfg_store_stats()))
            .join()
            .expect("the other thread lowers");
        assert_eq!(
            (stats.hits, stats.misses, stats.cfgs),
            (0, 1, 1),
            "a fresh thread starts with an empty store"
        );
        assert!(!Arc::ptr_eq(&mine, &theirs));
        assert_eq!(*mine, *theirs, "and lowers the same CFG");
        assert_eq!(cfg_store_stats(), before);
    }
}
