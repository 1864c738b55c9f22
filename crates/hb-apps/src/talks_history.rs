//! Talks history: the six historical type errors (paper §5 "Type Errors in
//! Talks") and the seven-version live-update sequence (Table 2).

use crate::apps::talks;
use crate::{build_app, build_app_with};
use hummingbird::{ErrorKind, Hummingbird, HummingbirdBuilder, Mode, ReloadReport, TypeDiagnostic};

/// One historical error version: the buggy code (re-opening a class), the
/// request that triggers the check, the expected blame fragment, and the
/// stable diagnostic code the structured surface reports.
pub struct ErrorVersion {
    /// The paper's version label.
    pub version: &'static str,
    pub description: &'static str,
    pub buggy_source: &'static str,
    pub trigger: &'static str,
    pub expected_fragment: &'static str,
    /// The `HBxxxx` code this error carries (both just-in-time and under
    /// eager `hb_lint` checking).
    pub expected_code: &'static str,
}

/// The six historical Talks errors, one per paper bullet.
pub fn error_versions() -> Vec<ErrorVersion> {
    vec![
        ErrorVersion {
            version: "1/8/12-4",
            description: "misspelled compute_edit_fields as copute_edit_fields",
            buggy_source: r#"
class TalksController < ApplicationController
  def edit
    t = Talk.find(params[:id].rdl_cast("Fixnum"))
    render(copute_edit_fields(t))
  end
end
"#,
            trigger: "$router.dispatch(\"GET\", \"/talks/edit\", { :id => 1 })",
            expected_fragment: "no type for TalksController#copute_edit_fields",
            expected_code: "HB0003",
        },
        ErrorVersion {
            version: "1/7/12-5",
            description: "passed a block to upcoming, whose type takes none",
            buggy_source: r#"
class ListsController < ApplicationController
  def show
    l = TalkList.find(params[:id].rdl_cast("Fixnum"))
    up = l.upcoming { |a, b| a }
    render(l.name + ": " + up.map { |t| t.display_title }.join(","))
  end
end
"#,
            trigger: "$router.dispatch(\"GET\", \"/lists/show\", { :id => 1 })",
            expected_fragment: "called with a block but its type does not take one",
            expected_code: "HB0008",
        },
        ErrorVersion {
            version: "1/26/12-3",
            description: "called subscribed_talks(true) but the argument is a Symbol",
            buggy_source: r#"
class ListsController < ApplicationController
  def subscribed
    user = current_user
    talks = user.subscribed_talks(true)
    render(talks.map { |t| t.display_title }.join(","))
  end
end
"#,
            trigger: "$router.dispatch(\"GET\", \"/lists/subscribed\", { :user_id => 2 })",
            expected_fragment: "argument type mismatch calling User#subscribed_talks",
            expected_code: "HB0002",
        },
        ErrorVersion {
            version: "1/28/12",
            description: "called .object on a String-returning method",
            buggy_source: r#"
class Talk < ActiveRecord::Base
  def display_title
    title.object
  end
end
"#,
            trigger: "$router.dispatch(\"GET\", \"/talks/show\", { :id => 1 })",
            expected_fragment: "no type for String#object",
            expected_code: "HB0003",
        },
        ErrorVersion {
            version: "2/6/12-2",
            description: "used undefined variable old_talk (treated as a no-arg method)",
            buggy_source: r#"
class TalksController < ApplicationController
  def edit
    t = Talk.find(params[:id].rdl_cast("Fixnum"))
    render(compute_edit_fields(old_talk))
  end
end
"#,
            trigger: "$router.dispatch(\"GET\", \"/talks/edit\", { :id => 1 })",
            expected_fragment: "no type for TalksController#old_talk",
            expected_code: "HB0003",
        },
        ErrorVersion {
            version: "2/6/12-3",
            description: "used undefined variable new_talk",
            buggy_source: r#"
class TalksController < ApplicationController
  def complete
    t = Talk.find(params[:id].rdl_cast("Fixnum"))
    new_talk.mark_completed
    redirect_to("/talks")
  end
end
"#,
            trigger: "$router.dispatch(\"POST\", \"/talks/complete\", { :id => 2 })",
            expected_fragment: "no type for TalksController#new_talk",
            expected_code: "HB0003",
        },
    ]
}

/// Runs one historical version and returns the blame message Hummingbird
/// reports.
///
/// # Panics
///
/// Panics if the version unexpectedly passes — the whole point is that
/// these errors are caught.
pub fn run_error_version(v: &ErrorVersion) -> String {
    let spec = talks();
    let mut hb = build_app(&spec, Mode::Full);
    hb.load_file("talks/buggy.rb", v.buggy_source)
        .unwrap_or_else(|e| panic!("{}: load failed: {e}", v.version));
    let err = hb
        .eval(v.trigger)
        .expect_err("the buggy version must blame");
    assert_eq!(err.kind, ErrorKind::TypeBlame, "{}: {err}", v.version);
    err.message
}

/// A structured view of one historical error, captured while the app (and
/// its source map) was alive: the diagnostic itself plus its resolved
/// renderings, so golden tests can assert spans and JSON without holding
/// the whole system.
#[derive(Debug, Clone)]
pub struct ErrorVersionDiag {
    pub diagnostic: TypeDiagnostic,
    /// `TypeDiagnostic::render` against the app's source map.
    pub rendered: String,
    /// `TypeDiagnostic::to_json` against the app's source map.
    pub json: String,
    /// The blamed-annotation label resolved to `(file:line:col, exact
    /// source text under the span)`, when the diagnostic carries one.
    pub blamed_at: Option<(String, String)>,
}

fn capture_diag(hb: &Hummingbird, diagnostic: TypeDiagnostic) -> ErrorVersionDiag {
    let map = hb.source_map();
    let blamed_at = diagnostic
        .label(hummingbird::LabelRole::BlamedAnnotation)
        .and_then(|l| {
            let f = map.file(l.span.file)?;
            let text = f.text.get(l.span.lo as usize..l.span.hi as usize)?;
            Some((map.describe(l.span), text.to_string()))
        });
    ErrorVersionDiag {
        rendered: diagnostic.render(map),
        json: diagnostic.to_json(map),
        blamed_at,
        diagnostic,
    }
}

/// [`run_error_version`], returning the structured diagnostic behind the
/// blame instead of the flattened message.
///
/// # Panics
///
/// Panics if the version unexpectedly passes or blames without a
/// structured diagnostic.
pub fn run_error_version_diag(v: &ErrorVersion) -> ErrorVersionDiag {
    let spec = talks();
    let mut hb = build_app(&spec, Mode::Full);
    hb.load_file("talks/buggy.rb", v.buggy_source)
        .unwrap_or_else(|e| panic!("{}: load failed: {e}", v.version));
    let err = hb
        .eval(v.trigger)
        .expect_err("the buggy version must blame");
    assert_eq!(err.kind, ErrorKind::TypeBlame, "{}: {err}", v.version);
    let diag = err
        .diagnostic()
        .unwrap_or_else(|| panic!("{}: blame without diagnostic", v.version))
        .clone();
    capture_diag(&hb, diag)
}

/// Lints one historical version *eagerly*: loads the buggy source and runs
/// [`Hummingbird::check_all`] — no triggering request — returning every
/// diagnostic found (expected: exactly one, with `v.expected_code`).
pub fn lint_error_version(v: &ErrorVersion) -> Vec<ErrorVersionDiag> {
    lint_error_version_with_jobs(v, 1)
}

/// [`lint_error_version`] fanned across `jobs` scheduler workers
/// ([`Hummingbird::check_all_parallel`]); `jobs <= 1` is exactly the
/// serial path, and the parallel path's diagnostics are byte-identical.
pub fn lint_error_version_with_jobs(v: &ErrorVersion, jobs: usize) -> Vec<ErrorVersionDiag> {
    let spec = talks();
    let mut hb = build_app(&spec, Mode::Full);
    hb.load_file("talks/buggy.rb", v.buggy_source)
        .unwrap_or_else(|e| panic!("{}: load failed: {e}", v.version));
    let diags = hb.check_all_parallel(jobs);
    diags.into_iter().map(|d| capture_diag(&hb, d)).collect()
}

/// The seven versions of the update experiment (Table 2), as file contents
/// applied as live reloads.
pub fn update_versions() -> Vec<(&'static str, &'static str)> {
    vec![
        ("v0 (initial)", include_str!("../apps/talks/updates/v0.rb")),
        ("v1", include_str!("../apps/talks/updates/v1.rb")),
        ("v2", include_str!("../apps/talks/updates/v2.rb")),
        ("v3", include_str!("../apps/talks/updates/v3.rb")),
        ("v4", include_str!("../apps/talks/updates/v4.rb")),
        ("v5", include_str!("../apps/talks/updates/v5.rb")),
        ("v6", include_str!("../apps/talks/updates/v6.rb")),
    ]
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct UpdateRow {
    pub version: String,
    pub changed: usize,
    pub added: usize,
    pub removed: usize,
    pub deps: u64,
    /// Methods newly/re-checked when the requests are replayed.
    pub checked: usize,
}

/// The request script replayed after every update (same functionality as
/// the Table 1 script plus the formatter).
const UPDATE_REQUESTS: &str = r#"
fmt = TalkFormatter.new
list = TalkList.find(1)
talk = Talk.find(1)
fmt.head(talk)
fmt.row(talk)
fmt.page(list)
fmt.footer
fmt.banner(list) if TalkFormatter.method_defined?(:banner)
fmt.sidebar(list) if TalkFormatter.method_defined?(:sidebar)
talks_requests
"#;

/// Runs the full update experiment: boot v0, replay requests, then apply
/// v1..v6 as live reloads, replaying the same requests after each.
pub fn run_update_experiment() -> Vec<UpdateRow> {
    run_update_experiment_with(Hummingbird::builder(), |_, _| {})
}

/// [`run_update_experiment`] on a Talks system assembled from `builder`
/// (a fleet-attached writer, say). `after` runs with each version's row
/// once it is recorded, so its own work never counts toward the row.
pub fn run_update_experiment_with(
    builder: HummingbirdBuilder,
    mut after: impl FnMut(&mut Hummingbird, &UpdateRow),
) -> Vec<UpdateRow> {
    let spec = talks();
    let mut hb = build_app_with(&spec, builder);
    let versions = update_versions();
    let mut rows = Vec::new();
    let mut first = true;
    for (label, src) in versions {
        let report: ReloadReport = if first {
            hb.load_file("talks/updates/formatter.rb", src)
                .expect("v0 loads");
            // Annotations reference the class, so they load after v0.
            hb.load_file(
                "talks/updates/annotations.rb",
                include_str!("../apps/talks/updates/annotations.rb"),
            )
            .expect("formatter annotations load");
            first = false;
            ReloadReport::default()
        } else {
            // Reset the database so every version runs on the same data
            // (per the paper's §5 update methodology).
            hb.eval("talks_seed").expect("reseed");
            hb.reload_file("talks/updates/formatter.rb", src)
                .expect("reload applies")
        };
        hb.engine.take_check_log();
        run_update_requests(&mut hb);
        let checked = hb.engine.take_check_log().len();
        let row = UpdateRow {
            version: label.to_string(),
            changed: report.changed.len(),
            added: report.added.len(),
            removed: report.removed.len(),
            deps: report.dependents_invalidated,
            checked,
        };
        after(&mut hb, &row);
        rows.push(row);
    }
    rows
}

/// Replays the update experiment's request script once.
///
/// # Panics
///
/// Panics if a request fails (the script is expected to pass).
pub fn run_update_requests(hb: &mut Hummingbird) {
    hb.eval(UPDATE_REQUESTS)
        .unwrap_or_else(|e| panic!("update requests failed: {e}"));
}
