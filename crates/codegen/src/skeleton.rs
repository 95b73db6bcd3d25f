//! Process-skeleton emission: `rumpsteak-gen --skeleton`.
//!
//! [`rust_program`] extends [`rust_module`](crate::rust_module) into a
//! complete runnable program: after the generated declarations it emits
//! one `async fn run_<role>` per role driving that role's session through
//! `try_session` (send/receive calls, `choice!` match arms, labelled
//! loops for recursion), plus a `fn main` that connects the mesh, spawns
//! every role on the executor and joins them.
//!
//! The skeleton is *default logic*, meant to be edited: payloads are sent
//! as `Default::default()`, received payloads are discarded, and internal
//! choices loop for [`ROUNDS`] iterations before taking the first branch
//! that leads out of the loop. A protocol whose internal choices never
//! terminate generates a skeleton that runs forever — just like the
//! protocol it implements.
//!
//! [`ROUNDS`]: rust_program

use std::collections::{BTreeMap, HashMap};

use theory::local::LocalType;
use theory::sort::Sort;
use theory::Name;

use crate::emit::{fn_stem, module_parts_with, ModuleParts};
use crate::{Analysis, Error};

/// Emits a complete runnable program: the generated module followed by
/// per-role process skeletons and a `main` wiring them together.
pub fn rust_program(analysis: &Analysis) -> Result<String, Error> {
    program(analysis, false)
}

/// Emits a complete runnable *distributed* program: the generated module
/// targets the framed socket transport (wire-format labels, `NetLink`
/// role structs, per-role `connect_*` constructors), and `main`
/// dispatches on `argv` — `<ROLE> <TOPOLOGY-FILE>` — so one binary
/// serves every role, one OS process each.
pub fn rust_distributed_program(analysis: &Analysis) -> Result<String, Error> {
    program(analysis, true)
}

fn program(analysis: &Analysis, distributed: bool) -> Result<String, Error> {
    let parts = module_parts_with(analysis, distributed)?;
    let label_sorts: BTreeMap<Name, Sort> = parts.labels.iter().cloned().collect();

    let mut uses_into_session = false;
    let mut fns = Vec::new();
    for ((_, local), role_parts) in analysis.locals.iter().zip(&parts.roles) {
        let (text, rec_used) = role_fn(local, role_parts, &parts, &label_sorts);
        uses_into_session |= rec_used;
        fns.push(text);
    }

    let mut out = parts.text.clone();
    out.push('\n');
    if uses_into_session {
        out.push_str("use rumpsteak::{try_session, IntoSession};\n");
    } else {
        out.push_str("use rumpsteak::try_session;\n");
    }
    out.push_str(
        "\n// ---- process skeletons ----------------------------------------------\n\
         // Default logic, meant to be edited: payloads are `Default::default()`,\n\
         // received payloads are discarded, and internal choices loop `ROUNDS`\n\
         // times before taking a branch that leaves the loop.\n\n\
         /// Iterations each internal choice performs before choosing an exit.\n\
         pub const ROUNDS: usize = 100;\n",
    );
    for text in &fns {
        out.push('\n');
        out.push_str(text);
    }
    out.push('\n');
    if distributed {
        out.push_str(&emit_distributed_main(analysis, &parts));
    } else {
        out.push_str(&emit_main(analysis, &parts));
    }
    Ok(out)
}

/// Renders the skeleton function for one role; returns `(text, uses_rec)`.
fn role_fn(
    local: &LocalType,
    role_parts: &crate::emit::RoleParts,
    parts: &ModuleParts,
    label_sorts: &BTreeMap<Name, Sort>,
) -> (String, bool) {
    let mut gen = SkelGen {
        label_types: &parts.label_types,
        label_sorts,
        choice_names: assign_choice_names(local, &role_parts.choice_names),
        out: String::new(),
        indent: 2,
        rec_counter: 0,
        rec_env: Vec::new(),
        uses_rounds: false,
    };
    gen.emit(local, "s", true);
    let body = std::mem::take(&mut gen.out);

    let role_ty = &role_parts.role_ty;
    let entry = &role_parts.entry_alias;
    let fn_name = fn_name(role_ty);
    let mut text = format!(
        "/// Skeleton process for role `{role_ty}`: drives `{entry}` to completion.\n\
         pub async fn run_{fn_name}(role: &mut {role_ty}) -> rumpsteak::Result<()> {{\n\
         \x20   try_session(role, |s: {entry}<'_>| async move {{\n"
    );
    if gen.uses_rounds {
        text.push_str("        let mut rounds = ROUNDS;\n");
    }
    text.push_str(&body);
    text.push_str("    })\n    .await\n}\n");
    (text, gen.rec_counter > 0)
}

/// Renders the generated `fn main`.
fn emit_main(analysis: &Analysis, parts: &ModuleParts) -> String {
    let vars: Vec<String> = parts.roles.iter().map(|r| fn_name(&r.role_ty)).collect();
    let mut out =
        String::from("fn main() {\n    let rt = executor::Runtime::with_default_threads();\n");
    if vars.len() == 1 {
        out.push_str(&format!("    let mut {} = connect();\n", vars[0]));
    } else {
        let list: Vec<String> = vars.iter().map(|v| format!("mut {v}")).collect();
        out.push_str(&format!("    let ({}) = connect();\n", list.join(", ")));
    }
    out.push_str("    let handles = [\n");
    for var in &vars {
        out.push_str(&format!(
            "        rt.spawn(async move {{ run_{var}(&mut {var}).await }}),\n"
        ));
    }
    out.push_str("    ];\n    for handle in handles {\n");
    out.push_str(
        "        rt.block_on(handle).expect(\"task panicked\").expect(\"session failed\");\n",
    );
    out.push_str("    }\n");
    out.push_str(&format!(
        "    println!(\"protocol `{}`: all {} roles ran to completion\");\n}}\n",
        analysis.protocol.name,
        vars.len()
    ));
    out
}

/// Renders the distributed `fn main`: one process per role, selected by
/// `argv` and wired through the topology file.
fn emit_distributed_main(analysis: &Analysis, parts: &ModuleParts) -> String {
    let vars: Vec<String> = parts.roles.iter().map(|r| fn_stem(&r.role_ty)).collect();
    let names: Vec<&str> = parts.roles.iter().map(|r| r.role_ty.as_str()).collect();
    let roles_list = names.join(", ");
    let mut out = String::from("fn main() {\n    let mut args = std::env::args().skip(1);\n");
    out.push_str(&format!(
        "    let (role, topology) = match (args.next(), args.next()) {{\n\
         \x20       (Some(role), Some(topology)) => (role, topology),\n\
         \x20       _ => {{\n\
         \x20           eprintln!(\"usage: <ROLE> <TOPOLOGY-FILE>  (roles: {roles_list})\");\n\
         \x20           std::process::exit(2);\n\
         \x20       }}\n\
         \x20   }};\n"
    ));
    out.push_str(
        "    let topology = Topology::from_file(&topology).unwrap_or_else(|error| {\n\
         \x20       eprintln!(\"error: cannot load topology: {error}\");\n\
         \x20       std::process::exit(2);\n\
         \x20   });\n\
         \x20   let rt = executor::Runtime::with_default_threads();\n\
         \x20   match role.as_str() {\n",
    );
    for (var, name) in vars.iter().zip(&names) {
        out.push_str(&format!(
            "        \"{name}\" => {{\n\
             \x20           let mut {var} = connect_{var}(topology).expect(\"connect role {name}\");\n\
             \x20           let handle = rt.spawn(async move {{ run_{var}(&mut {var}).await }});\n\
             \x20           rt.block_on(handle)\n\
             \x20               .expect(\"task panicked\")\n\
             \x20               .expect(\"session failed\");\n\
             \x20       }}\n"
        ));
    }
    out.push_str(&format!(
        "        other => {{\n\
         \x20           eprintln!(\"unknown role `{{other}}` (roles: {roles_list})\");\n\
         \x20           std::process::exit(2);\n\
         \x20       }}\n\
         \x20   }}\n"
    ));
    out.push_str(
        "    // Inert unless the environment opts in: `RUMPSTEAK_TRACE_OUT=<path>`\n\
         \x20   // writes this process's trace dump for `rumpsteak-trace --merge`.\n\
         \x20   if let Ok(path) = std::env::var(\"RUMPSTEAK_TRACE_OUT\") {\n\
         \x20       std::fs::write(&path, rumpsteak::telemetry::trace::dump_text(&role))\n\
         \x20           .expect(\"write trace dump\");\n\
         \x20   }\n",
    );
    out.push_str(&format!(
        "    println!(\"role `{{role}}` of protocol `{}` ran to completion\");\n}}\n",
        analysis.protocol.name
    ));
    out
}

/// Derives the `run_<x>` / local-variable stem from a role type name.
fn fn_name(role_ty: &str) -> String {
    fn_stem(role_ty)
}

/// Maps every multi-branch node of `local` to its `choice!` enum name,
/// replaying the pre-order traversal `emit_type` used to allocate them.
fn assign_choice_names(local: &LocalType, names: &[String]) -> HashMap<*const LocalType, String> {
    fn go(
        local: &LocalType,
        names: &[String],
        counter: &mut usize,
        map: &mut HashMap<*const LocalType, String>,
    ) {
        match local {
            LocalType::End | LocalType::Var(_) => {}
            LocalType::Rec { body, .. } => go(body, names, counter, map),
            LocalType::Select { branches, .. } | LocalType::Branch { branches, .. } => {
                if branches.len() > 1 {
                    map.insert(local as *const _, names[*counter].clone());
                    *counter += 1;
                }
                for branch in branches {
                    go(&branch.continuation, names, counter, map);
                }
            }
        }
    }
    let mut map = HashMap::new();
    let mut counter = 0;
    go(local, names, &mut counter, &mut map);
    map
}

/// Whether `local` mentions a recursion variable bound *outside* it —
/// i.e. whether, as a choice continuation, it loops back.
fn has_free_var(local: &LocalType) -> bool {
    fn go<'t>(local: &'t LocalType, bound: &mut Vec<&'t Name>) -> bool {
        match local {
            LocalType::End => false,
            LocalType::Var(var) => !bound.contains(&var),
            LocalType::Rec { var, body } => {
                bound.push(var);
                let result = go(body, bound);
                bound.pop();
                result
            }
            LocalType::Select { branches, .. } | LocalType::Branch { branches, .. } => branches
                .iter()
                .any(|branch| go(&branch.continuation, bound)),
        }
    }
    go(local, &mut Vec::new())
}

/// Per-role skeleton emission state.
struct SkelGen<'a> {
    label_types: &'a BTreeMap<Name, String>,
    label_sorts: &'a BTreeMap<Name, Sort>,
    choice_names: HashMap<*const LocalType, String>,
    out: String,
    /// Current indent, in 4-space levels.
    indent: usize,
    rec_counter: usize,
    /// Recursion variable → id of its holder (`s{id}`) and label (`'l{id}`).
    rec_env: Vec<(Name, usize)>,
    uses_rounds: bool,
}

impl SkelGen<'_> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// The expression constructing a label value to send.
    fn label_expr(&self, label: &Name) -> String {
        let ty = &self.label_types[label];
        match self.label_sorts[label] {
            Sort::Unit => ty.clone(),
            _ => format!("{ty}(Default::default())"),
        }
    }

    /// The irrefutable pattern matching a received label value.
    fn label_pat(&self, label: &Name) -> String {
        let ty = &self.label_types[label];
        match self.label_sorts[label] {
            Sort::Unit => ty.clone(),
            _ => format!("{ty}(_)"),
        }
    }

    /// Emits the statements driving `local`, with the current session
    /// value bound to `cur`. `tail` is true when we are in tail position
    /// of the `try_session` closure (so `Ok(...)` needs no `return`).
    fn emit(&mut self, local: &LocalType, cur: &str, tail: bool) {
        match local {
            LocalType::End => {
                if tail {
                    self.line(&format!("Ok(((), {cur}))"));
                } else {
                    self.line(&format!("return Ok(((), {cur}));"));
                }
            }
            LocalType::Var(var) => {
                let id = self
                    .rec_env
                    .iter()
                    .rev()
                    .find(|(v, _)| v == var)
                    .map(|(_, id)| *id)
                    .expect("projection output has no free variables");
                self.line(&format!("s{id} = {cur};"));
                self.line(&format!("continue 'l{id};"));
            }
            LocalType::Rec { var, body } => {
                self.rec_counter += 1;
                let id = self.rec_counter;
                self.line(&format!("let mut s{id} = {cur};"));
                self.line(&format!("'l{id}: loop {{"));
                self.indent += 1;
                self.line(&format!("let s = s{id}.into_session();"));
                self.rec_env.push((*var, id));
                self.emit(body, "s", false);
                self.rec_env.pop();
                self.indent -= 1;
                self.line("}");
            }
            LocalType::Select { branches, .. } if branches.len() == 1 => {
                let branch = &branches[0];
                let expr = self.label_expr(&branch.label);
                self.line(&format!("let s = {cur}.send({expr}).await?;"));
                self.emit(&branch.continuation, "s", tail);
            }
            LocalType::Select { branches, .. } => {
                let looping = branches.iter().position(|b| has_free_var(&b.continuation));
                let exiting = branches.iter().position(|b| !has_free_var(&b.continuation));
                match (looping, exiting) {
                    (Some(lb), Some(eb)) => {
                        self.uses_rounds = true;
                        self.line("if rounds > 0 {");
                        self.indent += 1;
                        self.line("rounds -= 1;");
                        let expr = self.label_expr(&branches[lb].label);
                        self.line(&format!("let s = {cur}.select({expr}).await?;"));
                        self.emit(&branches[lb].continuation, "s", tail);
                        self.indent -= 1;
                        self.line("} else {");
                        self.indent += 1;
                        let expr = self.label_expr(&branches[eb].label);
                        self.line(&format!("let s = {cur}.select({expr}).await?;"));
                        self.emit(&branches[eb].continuation, "s", tail);
                        self.indent -= 1;
                        self.line("}");
                    }
                    _ => {
                        // All branches loop (or all exit): always take the
                        // first one.
                        let branch = &branches[0];
                        let expr = self.label_expr(&branch.label);
                        self.line(&format!("let s = {cur}.select({expr}).await?;"));
                        self.emit(&branch.continuation, "s", tail);
                    }
                }
            }
            LocalType::Branch { branches, .. } if branches.len() == 1 => {
                let branch = &branches[0];
                let pat = self.label_pat(&branch.label);
                self.line(&format!("let ({pat}, s) = {cur}.receive().await?;"));
                self.emit(&branch.continuation, "s", tail);
            }
            LocalType::Branch { branches, .. } => {
                let choice = self.choice_names[&(local as *const _)].clone();
                self.line(&format!("match {cur}.branch().await? {{"));
                self.indent += 1;
                for branch in branches {
                    let variant = self.label_types[&branch.label].clone();
                    let pat = self.label_pat(&branch.label);
                    self.line(&format!("{choice}::{variant}({pat}, s) => {{"));
                    self.indent += 1;
                    self.emit(&branch.continuation, "s", tail);
                    self.indent -= 1;
                    self.line("}");
                }
                self.indent -= 1;
                self.line("}");
            }
        }
    }
}
