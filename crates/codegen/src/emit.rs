//! The Rust emitter: turns an [`Analysis`] into a self-contained module
//! of `rumpsteak` declarations.
//!
//! Output layout, in order:
//!
//! 1. a header comment recording the protocol and its projections,
//! 2. one `use rumpsteak::{...}` line importing exactly what is used,
//! 3. one payload struct per message label,
//! 4. the `messages!` wire-format enum,
//! 5. the `roles!` mesh declaration,
//! 6. a single `session!` block with one `{Role}Session` entry alias per
//!    role plus one recursion struct per `rec` binder,
//! 7. one `choice!` enum per internal/external choice.
//!
//! Naming: role `s` → type `S`; label `ready` → struct `Ready`; `rec loop`
//! in role `s` → struct `SLoop`; the n-th choice of role `s` → `SChoice`,
//! `SChoice2`, ... Collisions between mangled names resolve by numeric
//! suffix for generated names and are an [`Error`] for user-supplied ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use theory::global::GlobalType;
use theory::local::LocalType;
use theory::sort::Sort;
use theory::Name;

use crate::naming::{pascal_case, snake_case};
use crate::{Analysis, Error};

/// The rendered module plus the name tables the skeleton emitter reuses.
pub(crate) struct ModuleParts {
    /// The complete module text (what [`rust_module`] returns).
    pub(crate) text: String,
    /// Labels with their sorts, in first-occurrence order.
    pub(crate) labels: Vec<(Name, Sort)>,
    /// Scribble label → Rust struct name.
    pub(crate) label_types: BTreeMap<Name, String>,
    /// Per-role naming, in role declaration order.
    pub(crate) roles: Vec<RoleParts>,
}

/// Naming decisions for one role's session types.
pub(crate) struct RoleParts {
    /// Rust type name of the role struct.
    pub(crate) role_ty: String,
    /// Name of the `{Role}Session` entry alias.
    pub(crate) entry_alias: String,
    /// Choice enum names, in pre-order of multi-branch nodes of the
    /// role's local type (the traversal order of `emit_type`).
    pub(crate) choice_names: Vec<String>,
}

/// Emits the complete generated Rust module.
pub fn rust_module(analysis: &Analysis) -> Result<String, Error> {
    Ok(module_parts(analysis)?.text)
}

/// Builds the module text together with its naming tables (in-process
/// carrier: the `roles!` channel mesh).
pub(crate) fn module_parts(analysis: &Analysis) -> Result<ModuleParts, Error> {
    module_parts_with(analysis, false)
}

/// Builds the module text together with its naming tables. With
/// `distributed` set, the module targets the framed socket transport:
/// the wire-format enum derives [`Wire`](rumpsteak::wire::Wire), role
/// structs carry one [`NetLink`](rumpsteak::net::NetLink) per peer
/// instead of an in-process channel, and each role gets a
/// `connect_<role>` constructor that binds its topology address,
/// registers the verified k-MC bounds as socket send windows and dials
/// or accepts every peer.
pub(crate) fn module_parts_with(
    analysis: &Analysis,
    distributed: bool,
) -> Result<ModuleParts, Error> {
    let protocol = &analysis.protocol;

    // ---- name tables -------------------------------------------------
    // Reserved up front: the wire-format enum, the `rumpsteak` items the
    // module imports, and prelude types a payload struct could shadow
    // (`pub struct String(pub String)` would otherwise emit). User-named
    // roles/labels hitting these surface as NameCollision instead of
    // non-compiling output.
    let mut used: Vec<String> = [
        "Label", "Branch", "End", "Receive", "Select", "Send", "String", "Option", "Vec", "Box",
        "Result",
    ]
    .map(str::to_owned)
    .into();

    let mut role_types: BTreeMap<Name, String> = BTreeMap::new();
    for role in &protocol.roles {
        let ty = pascal_case(role.as_str());
        if used.contains(&ty) {
            return Err(Error::NameCollision {
                kind: "role",
                name: ty,
            });
        }
        used.push(ty.clone());
        role_types.insert(*role, ty);
    }

    let labels = collect_labels(&protocol.body)?;
    let mut label_types: BTreeMap<Name, String> = BTreeMap::new();
    for (label, _) in &labels {
        let ty = pascal_case(label.as_str());
        if used.contains(&ty) {
            return Err(Error::NameCollision {
                kind: "label",
                name: ty,
            });
        }
        used.push(ty.clone());
        label_types.insert(*label, ty);
    }

    // ---- per-role session types --------------------------------------
    // The `session!` block's lines, each type written in place.
    let mut imports = Imports::default();
    let mut sessions = String::new();
    let mut choices: Vec<ChoiceDecl> = Vec::new();
    let mut role_parts: Vec<RoleParts> = Vec::new();
    for (role, local) in &analysis.locals {
        let role_ty = role_types[role].clone();
        let entry_alias = alloc(&mut used, &format!("{role_ty}Session"));
        let mut gen = RoleGen {
            role_ty: &role_ty,
            role_types: &role_types,
            label_types: &label_types,
            used: &mut used,
            structs: Vec::new(),
            choices: Vec::new(),
            imports: &mut imports,
        };
        let _ = write!(sessions, "    type {entry_alias}<'q> = ");
        gen.emit_type(local, &mut Vec::new(), &mut sessions);
        sessions.push_str(";\n");
        for (name, inner) in &gen.structs {
            let _ = writeln!(sessions, "    struct {name}<'q> for {role_ty} = {inner};");
        }
        role_parts.push(RoleParts {
            role_ty: role_ty.clone(),
            entry_alias,
            choice_names: gen.choices.iter().map(|c| c.name.clone()).collect(),
        });
        choices.extend(gen.choices);
    }

    // ---- assembly ----------------------------------------------------
    let mut out = String::new();
    let _ = write!(
        out,
        "// Generated by `rumpsteak-gen` from global protocol `{}`. Do not edit.\n//\n// Projections:\n",
        protocol.name
    );
    for (role, local) in &analysis.locals {
        let _ = writeln!(out, "//   {role}: {local}");
    }
    out.push('\n');
    if distributed {
        // Before the grouped `rumpsteak::{...}` import: rustfmt orders a
        // plain `net` segment ahead of a brace group.
        out.push_str("use rumpsteak::net::{NetLink, RemoteMesh, Topology};\n");
    }
    imports.render(!choices.is_empty(), distributed, &mut out);
    out.push('\n');

    for (label, sort) in &labels {
        let ty = &label_types[label];
        let _ = match payload(sort) {
            None => write!(out, "/// Label `{label}`.\npub struct {ty};\n"),
            Some((rust_ty, _)) => write!(
                out,
                "/// Label `{label}` carrying `{rust_ty}`.\npub struct {ty}(pub {rust_ty});\n"
            ),
        };
    }
    out.push('\n');

    if distributed {
        // `wire` derives the byte format alongside the usual impls, so
        // the same enum crosses process boundaries.
        out.push_str("messages! {\n    wire enum Label {\n");
    } else {
        out.push_str("messages! {\n    enum Label {\n");
    }
    for (label, sort) in &labels {
        let ty = &label_types[label];
        let _ = match payload(sort) {
            None => writeln!(out, "        {ty}({ty}),"),
            Some((_, suffix)) => writeln!(out, "        {ty}({ty}): {suffix},"),
        };
    }
    out.push_str("    }\n}\n\n");

    // Statically verified per-channel bounds: when the k-MC exploration
    // is exhaustive, its observed maxima are tight, so connection setup
    // can register them for runtime watermark checking (telemetry builds
    // assert `observed_depth <= k`) — and, distributed, as each link's
    // socket send window. Omitted when no exhaustive bound is found — an
    // unverified number must never be registered.
    let bounds = crate::verified_channel_bounds(analysis);
    // Per-role `(field name, peer type)` link fields, in declaration
    // order, shared by both carriers.
    let mut role_fields: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for (role, local) in &analysis.locals {
        let peers = local.peers();
        let mut fields: Vec<(String, String)> = Vec::new();
        for peer in protocol.roles.iter().filter(|r| peers.contains(*r)) {
            let field = snake_case(peer.as_str());
            if fields.iter().any(|(name, _)| *name == field) {
                return Err(Error::NameCollision {
                    kind: "role field",
                    name: field,
                });
            }
            fields.push((field, role_types[peer].clone()));
        }
        role_fields.push((role_types[role].clone(), fields));
    }

    if distributed {
        out.push_str(
            "// ---- distributed roles ----------------------------------------------\n\
             // One struct per role holding a framed socket link per peer — the same\n\
             // shape `roles!` generates, with `NetLink` as the carrier — and one\n\
             // `connect_<role>` constructor per role: it binds the role's topology\n\
             // address, registers the statically verified k-MC bounds (each link's\n\
             // socket send window is capped at its direction's bound), then dials\n\
             // or accepts each peer.\n",
        );
        for (role_ty, fields) in &role_fields {
            let _ = write!(
                out,
                "\n/// Distributed role `{role_ty}`: one framed socket link per peer.\n\
                 pub struct {role_ty} {{\n"
            );
            for (field, _) in fields {
                let _ = writeln!(out, "    {field}: NetLink<Label>,");
            }
            out.push_str("}\n\n");
            let _ = write!(
                out,
                "impl rumpsteak::Role for {role_ty} {{\n\
                 \x20   type Message = Label;\n\
                 \x20   fn name() -> &'static str {{\n\
                 \x20       \"{role_ty}\"\n\
                 \x20   }}\n\
                 }}\n"
            );
            for (field, peer_ty) in fields {
                let _ = write!(
                    out,
                    "\nimpl rumpsteak::Route<{peer_ty}> for {role_ty} {{\n\
                     \x20   type Link = NetLink<Label>;\n\
                     \x20   fn route(&mut self) -> &mut Self::Link {{\n\
                     \x20       &mut self.{field}\n\
                     \x20   }}\n\
                     }}\n"
                );
            }
            let stem = fn_stem(role_ty);
            let _ = write!(
                out,
                "\n/// Connects role `{role_ty}` to its peers as laid out in `topology`.\n\
                 pub fn connect_{stem}(topology: Topology) -> std::io::Result<{role_ty}> {{\n"
            );
            if fields.is_empty() {
                let _ = write!(
                    out,
                    "    let _mesh = RemoteMesh::<Label>::bind(topology, \"{role_ty}\")?;\n\
                     \x20   Ok({role_ty} {{}})\n}}\n"
                );
                continue;
            }
            let _ = writeln!(
                out,
                "    let mut mesh = RemoteMesh::<Label>::bind(topology, \"{role_ty}\")?;"
            );
            for (from, to, depth) in &bounds {
                let from_ty = &role_types[from];
                let to_ty = &role_types[to];
                if from_ty == role_ty || to_ty == role_ty {
                    let _ = writeln!(
                        out,
                        "    mesh.set_bound(\"{from_ty}\", \"{to_ty}\", {depth});"
                    );
                }
            }
            for (field, peer_ty) in fields {
                let _ = writeln!(out, "    let {field} = mesh.link(\"{peer_ty}\")?;");
            }
            let _ = write!(out, "    Ok({role_ty} {{");
            for (index, (field, _)) in fields.iter().enumerate() {
                let _ = write!(out, "{} {field}", separator(index));
            }
            out.push_str(" })\n}\n");
        }
        out.push('\n');
    } else {
        out.push_str("roles! {\n    message Label;\n");
        if !bounds.is_empty() {
            out.push_str("    bounds {");
            for (index, (from, to, depth)) in bounds.iter().enumerate() {
                let (from, to) = (&role_types[from], &role_types[to]);
                let _ = write!(out, "{} {from} -> {to}: {depth}", separator(index));
            }
            out.push_str(" };\n");
        }
        for (role_ty, fields) in &role_fields {
            let _ = write!(out, "    {role_ty} {{");
            for (index, (field, peer_ty)) in fields.iter().enumerate() {
                let _ = write!(out, "{} {field}: {peer_ty}", separator(index));
            }
            if !fields.is_empty() {
                out.push(' ');
            }
            out.push_str("},\n");
        }
        out.push_str("}\n\n");
    }

    out.push_str("session! {\n");
    out.push_str(&sessions);
    out.push_str("}\n");

    for choice in &choices {
        let _ = write!(
            out,
            "\nchoice! {{\n    enum {}<'q> for {} {{\n",
            choice.name, choice.role_ty
        );
        for (label_ty, continuation) in &choice.variants {
            let _ = writeln!(out, "        {label_ty}({label_ty}) => {continuation},");
        }
        out.push_str("    }\n}\n");
    }

    Ok(ModuleParts {
        text: out,
        labels,
        label_types,
        roles: role_parts,
    })
}

/// All labels with their sorts, in pre-order of first occurrence.
fn collect_labels(global: &GlobalType) -> Result<Vec<(Name, Sort)>, Error> {
    fn walk(global: &GlobalType, out: &mut Vec<(Name, Sort)>) -> Result<(), Error> {
        match global {
            GlobalType::End | GlobalType::Var(_) => Ok(()),
            GlobalType::Rec { body, .. } => walk(body, out),
            GlobalType::Comm { branches, .. } => {
                for branch in branches {
                    match out.iter().find(|(label, _)| label == &branch.label) {
                        None => out.push((branch.label, branch.sort)),
                        Some((_, sort)) if sort == &branch.sort => {}
                        Some((_, sort)) => {
                            return Err(Error::LabelSortConflict {
                                label: branch.label,
                                first: *sort,
                                second: branch.sort,
                            })
                        }
                    }
                    walk(&branch.continuation, out)?;
                }
                Ok(())
            }
        }
    }
    let mut labels = Vec::new();
    walk(global, &mut labels)?;
    Ok(labels)
}

/// Maps a sort to its Rust payload type and `messages!` sort suffix;
/// `None` for unit (no payload).
fn payload(sort: &Sort) -> Option<(&'static str, &'static str)> {
    match sort {
        Sort::Unit => None,
        Sort::I32 => Some(("i32", "i32")),
        Sort::U32 => Some(("u32", "u32")),
        Sort::I64 => Some(("i64", "i64")),
        Sort::U64 => Some(("u64", "u64")),
        Sort::F64 => Some(("f64", "f64")),
        Sort::Bool => Some(("bool", "bool")),
        Sort::Str => Some(("String", "str")),
        Sort::Custom(name) => Some((name.as_str(), name.as_str())),
    }
}

/// What goes before the `index`-th item of a comma-separated list.
fn separator(index: usize) -> &'static str {
    if index == 0 {
        ""
    } else {
        ","
    }
}

/// Derives the `connect_<x>` / `run_<x>` function stem from a role type
/// name.
pub(crate) fn fn_stem(role_ty: &str) -> String {
    let snake = snake_case(role_ty);
    snake
        .trim_start_matches("r#")
        .trim_end_matches('_')
        .to_owned()
}

/// Claims `base` in `used`, appending the smallest numeric suffix ≥ 2 on
/// collision. Deterministic: allocation order is traversal order.
fn alloc(used: &mut Vec<String>, base: &str) -> String {
    let mut candidate = base.to_owned();
    let mut n = 2usize;
    while used.contains(&candidate) {
        candidate.truncate(base.len());
        let _ = write!(candidate, "{n}");
        n += 1;
    }
    used.push(candidate.clone());
    candidate
}

/// Which `rumpsteak` items the generated module references.
#[derive(Default)]
struct Imports {
    send: bool,
    receive: bool,
    select: bool,
    branch: bool,
    end: bool,
}

impl Imports {
    /// Writes the `use rumpsteak::{...};` line.
    fn render(&self, any_choice: bool, distributed: bool, out: &mut String) {
        let mut items: Vec<&str> = Vec::new();
        if any_choice {
            items.push("choice");
        }
        // Distributed modules declare their role structs by hand, so the
        // `roles!` macro is not imported.
        if distributed {
            items.extend(["messages", "session"]);
        } else {
            items.extend(["messages", "roles", "session"]);
        }
        for (flag, item) in [
            (self.branch, "Branch"),
            (self.end, "End"),
            (self.receive, "Receive"),
            (self.select, "Select"),
            (self.send, "Send"),
        ] {
            if flag {
                items.push(item);
            }
        }
        let _ = writeln!(out, "use rumpsteak::{{{}}};", items.join(", "));
    }
}

/// One `choice!` declaration.
struct ChoiceDecl {
    name: String,
    role_ty: String,
    /// `(label type, continuation type)` per variant.
    variants: Vec<(String, String)>,
}

/// Per-role emission state.
struct RoleGen<'a> {
    role_ty: &'a str,
    role_types: &'a BTreeMap<Name, String>,
    label_types: &'a BTreeMap<Name, String>,
    used: &'a mut Vec<String>,
    /// `(struct name, inner type)` per `rec` binder, outer-first.
    structs: Vec<(String, String)>,
    choices: Vec<ChoiceDecl>,
    imports: &'a mut Imports,
}

impl RoleGen<'_> {
    /// Writes `local` into `out` as a session type expression,
    /// accumulating any recursion structs and choice enums it needs.
    /// `rec_env` maps bound recursion variables to their structs' indices
    /// in [`Self::structs`] (innermost last).
    fn emit_type(&mut self, local: &LocalType, rec_env: &mut Vec<(Name, usize)>, out: &mut String) {
        let role_ty = self.role_ty;
        match local {
            LocalType::End => {
                self.imports.end = true;
                let _ = write!(out, "End<'q, {role_ty}>");
            }
            LocalType::Var(var) => {
                let &(_, slot) = (rec_env.iter().rev())
                    .find(|(v, _)| v == var)
                    .expect("projection output has no free variables");
                let _ = write!(out, "{}<'q>", self.structs[slot].0);
            }
            LocalType::Rec { var, body } => {
                let name = alloc(
                    self.used,
                    &format!("{role_ty}{}", pascal_case(var.as_str())),
                );
                let _ = write!(out, "{name}<'q>");
                // Reserve the slot so nested binders appear after their
                // parent, then fill it once the body is rendered.
                let slot = self.structs.len();
                self.structs.push((name, String::new()));
                rec_env.push((*var, slot));
                let mut inner = String::new();
                self.emit_type(body, rec_env, &mut inner);
                rec_env.pop();
                self.structs[slot].1 = inner;
            }
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let is_select = matches!(local, LocalType::Select { .. });
                let (role_types, label_types) = (self.role_types, self.label_types);
                let peer_ty = &role_types[peer];
                if branches.len() == 1 {
                    let branch = &branches[0];
                    let primitive = if is_select {
                        self.imports.send = true;
                        "Send"
                    } else {
                        self.imports.receive = true;
                        "Receive"
                    };
                    let label_ty = &label_types[&branch.label];
                    let _ = write!(out, "{primitive}<'q, {role_ty}, {peer_ty}, {label_ty}, ");
                    self.emit_type(&branch.continuation, rec_env, out);
                    out.push('>');
                } else {
                    let name = alloc(self.used, &format!("{role_ty}Choice"));
                    let primitive = if is_select {
                        self.imports.select = true;
                        "Select"
                    } else {
                        self.imports.branch = true;
                        "Branch"
                    };
                    let _ = write!(out, "{primitive}<'q, {role_ty}, {peer_ty}, {name}<'q>>");
                    let slot = self.choices.len();
                    self.choices.push(ChoiceDecl {
                        name,
                        role_ty: role_ty.to_owned(),
                        variants: Vec::with_capacity(branches.len()),
                    });
                    for branch in branches {
                        let mut continuation = String::new();
                        self.emit_type(&branch.continuation, rec_env, &mut continuation);
                        let label_ty = label_types[&branch.label].clone();
                        self.choices[slot].variants.push((label_ty, continuation));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyse;

    use super::*;

    #[test]
    fn streaming_module_shape() {
        let analysis = analyse(
            r#"
            global protocol Streaming(role s, role t) {
                rec loop {
                    ready() from t to s;
                    choice at s {
                        value(i32) from s to t;
                        continue loop;
                    } or {
                        stop() from s to t;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let module = rust_module(&analysis).unwrap();
        assert!(module.contains("pub struct Ready;"));
        assert!(module.contains("bounds { S -> T: 1, T -> S: 1 };"));
        assert!(module.contains("pub struct Value(pub i32);"));
        assert!(module.contains("Value(Value): i32,"));
        assert!(module.contains("S { t: T },"));
        assert!(module.contains(
            "struct SLoop<'q> for S = Receive<'q, S, T, Ready, Select<'q, S, T, SChoice<'q>>>;"
        ));
        assert!(module.contains("type SSession<'q> = SLoop<'q>;"));
        assert!(module.contains("Stop(Stop) => End<'q, T>,"));
    }

    #[test]
    fn emission_is_deterministic() {
        let source = r#"
            global protocol P(role a, role b, role c) {
                rec l {
                    x(i32) from a to b;
                    choice at b {
                        y() from b to c;
                        ya() from b to a;
                        continue l;
                    } or {
                        z() from b to c;
                        za() from b to a;
                    }
                }
            }
        "#;
        let first = rust_module(&analyse(source).unwrap()).unwrap();
        let second = rust_module(&analyse(source).unwrap()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn labels_shadowing_imports_are_rejected() {
        // `send` would mangle to `Send`, colliding with the imported
        // rumpsteak primitive and producing non-compiling output.
        let analysis =
            analyse("global protocol P(role a, role b) { send(i32) from a to b; }").unwrap();
        assert!(matches!(
            rust_module(&analysis),
            Err(Error::NameCollision { kind: "label", .. })
        ));
        // `string` would shadow the prelude `String` its own payload uses.
        let analysis =
            analyse("global protocol P(role a, role b) { string(str) from a to b; }").unwrap();
        assert!(matches!(
            rust_module(&analysis),
            Err(Error::NameCollision { kind: "label", .. })
        ));
    }

    #[test]
    fn colliding_labels_are_rejected() {
        let analysis = analyse(
            "global protocol P(role a, role b) { my_label() from a to b; myLabel() from b to a; }",
        )
        .unwrap();
        assert!(matches!(
            rust_module(&analysis),
            Err(Error::NameCollision { kind: "label", .. })
        ));
    }

    #[test]
    fn conflicting_sorts_are_rejected() {
        let analysis = analyse(
            "global protocol P(role a, role b) { v(i32) from a to b; v(str) from b to a; }",
        )
        .unwrap();
        assert!(matches!(
            rust_module(&analysis),
            Err(Error::LabelSortConflict { .. })
        ));
    }

    #[test]
    fn uninvolved_role_gets_end_session() {
        let analysis =
            analyse("global protocol P(role a, role b, role c) { hi() from a to b; }").unwrap();
        let module = rust_module(&analysis).unwrap();
        assert!(module.contains("type CSession<'q> = End<'q, C>;"));
        assert!(module.contains("C {},"));
    }

    #[test]
    fn duplicate_rec_vars_get_numbered_structs() {
        // Two sequential `rec x` binders in the same role must not share a
        // struct name.
        let analysis = analyse(
            r#"
            global protocol P(role a, role b) {
                rec x {
                    choice at a {
                        go() from a to b;
                        continue x;
                    } or {
                        move_on() from a to b;
                        rec x {
                            choice at a {
                                again() from a to b;
                                continue x;
                            } or {
                                done() from a to b;
                            }
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let module = rust_module(&analysis).unwrap();
        assert!(module.contains("struct AX<'q> for A"));
        assert!(module.contains("struct AX2<'q> for A"));
    }
}
