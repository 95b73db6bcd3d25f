//! Parser for the Scribble subset used in the paper, extended with
//! **parameterised role families**.
//!
//! Supported syntax (Listing 1, Fig 3a, plus the `w[1..n]` extension):
//!
//! ```text
//! global protocol Name(role a, role w[1..n]) {
//!     label(sort?) from a to w[1];
//!     foreach i in 1..n-1 { hop() from w[i] to w[i+1]; }
//!     rec loop { ...; continue loop; }
//!     choice at a { ... } or { ... } or { ... }
//! }
//! ```
//!
//! Each `choice` branch must start with a message from the deciding role,
//! and all branches must target the same receiver with distinct labels —
//! the directed-choice discipline of Definition 1.
//!
//! A protocol whose header declares a role family (`role w[1..n]`) is a
//! *template*: parsing yields a [`Template`], and [`Template::instantiate`]
//! turns it into a concrete [`Protocol`] once every parameter (`n` above)
//! is bound to an integer. Index expressions over parameters and `foreach`
//! variables support literals, variables, `+`, `-` and `*` (so non-linear
//! strides like `w[2*i]`/`w[2*i-1]` work). `foreach` expands
//! its body once per index value (inclusive bounds, empty when `lo > hi`)
//! and may contain only message statements and nested `foreach`s, so the
//! expansion is a straight-line splice.
//!
//! [`parse`] remains the one-call entry point for non-parameterised
//! sources: it instantiates with no bindings, which succeeds whenever the
//! protocol has no unbound parameters (literal-bound families like
//! `role w[1..3]` are fine).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

use crate::global::{GlobalBranch, GlobalType};
use crate::name::Name;
use crate::sort::Sort;

/// A parsed `global protocol` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Protocol {
    /// Protocol name.
    pub name: Name,
    /// Declared roles, in declaration order (families expanded in place).
    pub roles: Vec<Name>,
    /// The protocol body as a global type.
    pub body: GlobalType,
}

/// Scribble parse error with line/column information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScribbleError {
    /// Description of the failure.
    pub message: String,
    /// 1-based line (0 when the error has no source position, e.g. it
    /// arose while instantiating a template).
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

impl ScribbleError {
    fn unpositioned(message: impl Into<String>) -> Self {
        ScribbleError {
            message: message.into(),
            line: 0,
            column: 0,
        }
    }
}

impl fmt::Display for ScribbleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ScribbleError {}

/// Integer bindings for template parameters, by parameter name.
pub type Bindings = BTreeMap<Name, i64>;

/// An integer expression over template parameters and `foreach` variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexExpr {
    /// A literal integer.
    Lit(i64),
    /// A parameter or `foreach` variable.
    Var(Name),
    /// Sum of two expressions.
    Add(Box<IndexExpr>, Box<IndexExpr>),
    /// Difference of two expressions.
    Sub(Box<IndexExpr>, Box<IndexExpr>),
    /// Product of two expressions (`2*i` role strides).
    Mul(Box<IndexExpr>, Box<IndexExpr>),
}

impl IndexExpr {
    fn eval(&self, env: &Bindings) -> Result<i64, ScribbleError> {
        match self {
            IndexExpr::Lit(value) => Ok(*value),
            IndexExpr::Var(var) => env
                .get(var)
                .copied()
                .ok_or_else(|| ScribbleError::unpositioned(format!("unbound parameter `{var}`"))),
            IndexExpr::Add(left, right) => {
                self.checked(left.eval(env)?.checked_add(right.eval(env)?))
            }
            IndexExpr::Sub(left, right) => {
                self.checked(left.eval(env)?.checked_sub(right.eval(env)?))
            }
            IndexExpr::Mul(left, right) => {
                self.checked(left.eval(env)?.checked_mul(right.eval(env)?))
            }
        }
    }

    /// `value`, the result of evaluating `self`, or the error naming
    /// `self` when it overflowed.
    fn checked(&self, value: Option<i64>) -> Result<i64, ScribbleError> {
        value.ok_or_else(|| {
            ScribbleError::unpositioned(format!("`{self}` overflows a 64-bit integer"))
        })
    }

    fn free_vars(&self, out: &mut BTreeSet<Name>) {
        self.each_var(&mut |var| {
            out.insert(var);
        });
    }

    /// Calls `visit` on every variable occurrence, left to right.
    fn each_var(&self, visit: &mut impl FnMut(Name)) {
        match self {
            IndexExpr::Lit(_) => {}
            IndexExpr::Var(var) => visit(*var),
            IndexExpr::Add(left, right)
            | IndexExpr::Sub(left, right)
            | IndexExpr::Mul(left, right) => {
                left.each_var(visit);
                right.each_var(visit);
            }
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Lit(value) => write!(f, "{value}"),
            IndexExpr::Var(var) => write!(f, "{var}"),
            IndexExpr::Add(left, right) => write!(f, "{left}+{right}"),
            IndexExpr::Sub(left, right) => write!(f, "{left}-{right}"),
            IndexExpr::Mul(left, right) => {
                fn factor(expr: &IndexExpr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    match expr {
                        IndexExpr::Add(..) | IndexExpr::Sub(..) => write!(f, "({expr})"),
                        other => write!(f, "{other}"),
                    }
                }
                factor(left, f)?;
                f.write_str("*")?;
                factor(right, f)
            }
        }
    }
}

/// One entry of a protocol's role list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoleDecl {
    /// A plain role: `role a`.
    Single(Name),
    /// An indexed family: `role w[lo..hi]` (inclusive bounds).
    Family {
        /// Family name; instance `i` becomes the role `{name}{i}`.
        name: Name,
        /// Lower bound.
        lo: IndexExpr,
        /// Upper bound (inclusive).
        hi: IndexExpr,
    },
}

/// A reference to a role inside the protocol body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoleRef {
    /// A plain role name.
    Plain(Name),
    /// A family member: `w[i+1]`.
    Indexed {
        /// The family being indexed.
        family: Name,
        /// The member index.
        index: IndexExpr,
    },
}

impl fmt::Display for RoleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoleRef::Plain(name) => write!(f, "{name}"),
            RoleRef::Indexed { family, index } => write!(f, "{family}[{index}]"),
        }
    }
}

/// Protocol body before instantiation: global-type syntax over role
/// references, plus `foreach` splices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TemplateType {
    /// `end`.
    End,
    /// A single message `label(sort) from a to b; continuation`.
    Comm {
        /// Sender reference.
        from: RoleRef,
        /// Receiver reference.
        to: RoleRef,
        /// Message label.
        label: Name,
        /// Payload sort.
        sort: Sort,
        /// Rest of the block.
        continuation: Box<TemplateType>,
    },
    /// `choice at r { ... } or { ... }`; each branch is a whole block that
    /// must expand to a message from `at` once instantiated.
    Choice {
        /// The deciding role.
        at: RoleRef,
        /// Branch blocks, in source order.
        branches: Vec<TemplateType>,
    },
    /// `rec var { body }`.
    Rec {
        /// Recursion variable.
        var: Name,
        /// Loop body.
        body: Box<TemplateType>,
    },
    /// `continue var;`.
    Var(Name),
    /// `foreach var in lo..hi { body } continuation` — expands to
    /// `body[var:=lo] ... body[var:=hi] continuation`.
    Foreach {
        /// The splice variable.
        var: Name,
        /// Lower bound.
        lo: IndexExpr,
        /// Upper bound (inclusive).
        hi: IndexExpr,
        /// The spliced block (messages and nested `foreach`s only).
        body: Box<TemplateType>,
        /// Rest of the enclosing block.
        continuation: Box<TemplateType>,
    },
}

/// A parsed, possibly parameterised `global protocol`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    /// Protocol name.
    pub name: Name,
    /// Role declarations, in source order.
    pub roles: Vec<RoleDecl>,
    /// The protocol body.
    pub body: TemplateType,
}

impl Template {
    /// The template's parameters: every variable occurring free in a role
    /// family bound. All of them must be bound for instantiation.
    pub fn params(&self) -> BTreeSet<Name> {
        let mut params = BTreeSet::new();
        for decl in &self.roles {
            if let RoleDecl::Family { lo, hi, .. } = decl {
                lo.free_vars(&mut params);
                hi.free_vars(&mut params);
            }
        }
        params
    }

    /// True when the header declares at least one role family.
    pub fn is_parameterised(&self) -> bool {
        self.roles
            .iter()
            .any(|decl| matches!(decl, RoleDecl::Family { .. }))
    }

    /// Expands the template into a concrete [`Protocol`] under `bindings`.
    ///
    /// Every parameter must be bound and every binding must name a
    /// parameter; each family must instantiate to at least one role; the
    /// expanded body must satisfy the same well-formedness rules `parse`
    /// enforces for plain protocols (directed choices, validation).
    pub fn instantiate(&self, bindings: &Bindings) -> Result<Protocol, ScribbleError> {
        let params = self.params();
        for name in bindings.keys() {
            if !params.contains(name) {
                return Err(ScribbleError::unpositioned(format!(
                    "unknown parameter `{name}` (protocol `{}` has {})",
                    self.name,
                    if params.is_empty() {
                        "no parameters".to_owned()
                    } else {
                        format!(
                            "parameters {}",
                            params
                                .iter()
                                .map(Name::to_string)
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    }
                )));
            }
        }

        // Expand the role list, recording each family's bounds and members.
        let mut roles = Vec::new();
        let mut families = Vec::new();
        for decl in &self.roles {
            match decl {
                RoleDecl::Single(name) => roles.push(*name),
                RoleDecl::Family { name, lo, hi } => {
                    let lo = lo.eval(bindings)?;
                    let hi = hi.eval(bindings)?;
                    if lo > hi {
                        return Err(ScribbleError::unpositioned(format!(
                            "role family {name}[{lo}..{hi}] is empty"
                        )));
                    }
                    let members: Vec<Name> = (lo..=hi)
                        .map(|i| Name::from(format!("{name}{i}")))
                        .collect();
                    roles.extend(&members);
                    families.push(Family {
                        name: *name,
                        lo,
                        hi,
                        members,
                    });
                }
            }
        }
        let mut seen = BTreeSet::new();
        for role in &roles {
            if !seen.insert(*role) {
                return Err(ScribbleError::unpositioned(format!(
                    "role {role} declared twice after family expansion"
                )));
            }
        }

        let mut env = bindings.clone();
        let body = expand(&self.body, &families, &mut env)?;
        body.validate()
            .map_err(|e| ScribbleError::unpositioned(e.to_string()))?;
        Ok(Protocol {
            name: self.name,
            roles,
            body,
        })
    }
}

/// A role family of one instantiation: `name[lo..hi]` and its members'
/// role names, `{name}{lo}` to `{name}{hi}`.
struct Family {
    name: Name,
    lo: i64,
    hi: i64,
    members: Vec<Name>,
}

/// Resolves a role reference to a concrete role name under `env`.
fn resolve_ref(role: &RoleRef, families: &[Family], env: &Bindings) -> Result<Name, ScribbleError> {
    match role {
        RoleRef::Plain(name) => Ok(*name),
        RoleRef::Indexed { family, index } => {
            // The last declaration of a name wins, as it always has.
            let Family {
                lo, hi, members, ..
            } = families
                .iter()
                .rev()
                .find(|declared| declared.name == *family)
                .ok_or_else(|| {
                    ScribbleError::unpositioned(format!("`{family}` is not a role family"))
                })?;
            let i = index.eval(env)?;
            if i < *lo || i > *hi {
                return Err(ScribbleError::unpositioned(format!(
                    "index {family}[{index}] = {family}[{i}] is outside the \
                     declared range [{lo}..{hi}]"
                )));
            }
            Ok(members[usize::try_from(i - lo).expect("lo <= i <= hi")])
        }
    }
}

/// Expands a template body to a concrete global type under `env`.
fn expand(
    template: &TemplateType,
    families: &[Family],
    env: &mut Bindings,
) -> Result<GlobalType, ScribbleError> {
    match template {
        TemplateType::End => Ok(GlobalType::End),
        TemplateType::Var(var) => Ok(GlobalType::Var(*var)),
        TemplateType::Rec { var, body } => Ok(GlobalType::Rec {
            var: *var,
            body: Box::new(expand(body, families, env)?),
        }),
        TemplateType::Comm {
            from,
            to,
            label,
            sort,
            continuation,
        } => {
            let from = resolve_ref(from, families, env)?;
            let to = resolve_ref(to, families, env)?;
            let continuation = expand(continuation, families, env)?;
            Ok(GlobalType::message(from, to, *label, *sort, continuation))
        }
        TemplateType::Choice { at, branches } => {
            let chooser = resolve_ref(at, families, env)?;
            let mut receiver: Option<Name> = None;
            let mut global_branches = Vec::new();
            for branch in branches {
                let expanded = expand(branch, families, env)?;
                let (label, sort, to, continuation) = split_choice_branch(&chooser, expanded)?;
                match &receiver {
                    None => receiver = Some(to),
                    Some(existing) if *existing == to => {}
                    Some(existing) => {
                        return Err(ScribbleError::unpositioned(format!(
                            "choice branches target different receivers {existing} and {to}"
                        )))
                    }
                }
                global_branches.push(GlobalBranch {
                    label,
                    sort,
                    continuation,
                });
            }
            Ok(GlobalType::Comm {
                from: chooser,
                to: receiver.expect("parser guarantees at least two branches"),
                branches: global_branches,
            })
        }
        TemplateType::Foreach {
            var,
            lo,
            hi,
            body,
            continuation,
        } => {
            let lo = lo.eval(env)?;
            let hi = hi.eval(env)?;
            let mut acc = expand(continuation, families, env)?;
            // Build back-to-front so each iteration's body is spliced in
            // front of everything after it.
            for i in (lo..=hi).rev() {
                let shadowed = env.insert(*var, i);
                let iteration = expand(body, families, env);
                match shadowed {
                    Some(previous) => {
                        env.insert(*var, previous);
                    }
                    None => {
                        env.remove(var);
                    }
                }
                acc = splice(iteration?, acc);
            }
            Ok(acc)
        }
    }
}

/// Grafts `rest` onto every `end` leaf of `body` (the sequencing of a
/// `foreach` iteration with what follows it). The parser restricts
/// `foreach` bodies to messages and nested `foreach`s, so every leaf is an
/// `end` and the splice is a straight-line concatenation.
fn splice(body: GlobalType, rest: GlobalType) -> GlobalType {
    match body {
        GlobalType::End => rest,
        GlobalType::Comm {
            from,
            to,
            mut branches,
        } => {
            // Foreach bodies contain only message statements, each with
            // exactly one branch; splice into its continuation. `rest` is
            // moved into the last branch, copied only into any before it.
            if let Some((last, others)) = branches.split_last_mut() {
                for branch in others {
                    let continuation = std::mem::replace(&mut branch.continuation, GlobalType::End);
                    branch.continuation = splice(continuation, rest.clone());
                }
                let continuation = std::mem::replace(&mut last.continuation, GlobalType::End);
                last.continuation = splice(continuation, rest);
            }
            GlobalType::Comm { from, to, branches }
        }
        other => other,
    }
}

/// A choice branch must start `chooser → to : label`; returns the parts.
fn split_choice_branch(
    chooser: &Name,
    branch: GlobalType,
) -> Result<(Name, Sort, Name, GlobalType), ScribbleError> {
    match branch {
        GlobalType::Comm { from, to, branches } if &from == chooser && branches.len() == 1 => {
            let branch = branches.into_iter().next().expect("len checked");
            Ok((branch.label, branch.sort, to, branch.continuation))
        }
        other => Err(ScribbleError::unpositioned(format!(
            "each choice branch must start with a message from {chooser}; found `{other}`"
        ))),
    }
}

/// A token of Scribble source; an identifier is a slice of the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Token<'a> {
    Ident(&'a str),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    DotDot,
    Plus,
    Minus,
    Star,
}

#[derive(Clone, Debug)]
struct Spanned<'a> {
    token: Token<'a>,
    line: usize,
    column: usize,
}

fn lex(source: &str) -> Result<Vec<Spanned<'_>>, ScribbleError> {
    let mut tokens = Vec::new();
    let mut line = 1;
    let mut column = 1;
    let mut chars = source.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        let (token_line, token_column) = (line, column);
        match c {
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
                continue;
            }
            c if c.is_whitespace() => {
                chars.next();
                column += 1;
                continue;
            }
            '/' => {
                // Line comment `// ...`.
                chars.next();
                column += 1;
                if matches!(chars.peek(), Some((_, '/'))) {
                    for (_, c) in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            column = 1;
                            break;
                        }
                    }
                    continue;
                }
                return Err(ScribbleError {
                    message: "unexpected `/`".into(),
                    line: token_line,
                    column: token_column,
                });
            }
            '.' => {
                chars.next();
                column += 1;
                if matches!(chars.peek(), Some((_, '.'))) {
                    chars.next();
                    column += 1;
                    tokens.push(Spanned {
                        token: Token::DotDot,
                        line: token_line,
                        column: token_column,
                    });
                    continue;
                }
                return Err(ScribbleError {
                    message: "unexpected `.` (ranges are written `lo..hi`)".into(),
                    line: token_line,
                    column: token_column,
                });
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '+' | '-' | '*' => {
                chars.next();
                column += 1;
                let token = match c {
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    ';' => Token::Semi,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    _ => Token::Comma,
                };
                tokens.push(Spanned {
                    token,
                    line: token_line,
                    column: token_column,
                });
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut end = start;
                while let Some(&(at, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        end = at + c.len_utf8();
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Spanned {
                    token: Token::Ident(&source[start..end]),
                    line: token_line,
                    column: token_column,
                });
            }
            other => {
                return Err(ScribbleError {
                    message: format!("unexpected character `{other}`"),
                    line,
                    column,
                })
            }
        }
    }
    Ok(tokens)
}

/// Parses a Scribble `global protocol` into a concrete [`Protocol`].
///
/// Equivalent to [`parse_template`] followed by an instantiation with no
/// bindings; fails if the protocol has unbound parameters.
pub fn parse(source: &str) -> Result<Protocol, ScribbleError> {
    let template = parse_template(source)?;
    template.instantiate(&Bindings::new())
}

/// Parses a Scribble `global protocol` into a (possibly parameterised)
/// [`Template`] without instantiating it.
pub fn parse_template(source: &str) -> Result<Template, ScribbleError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(&tokens);
    let template = parser.parse_protocol()?;
    if parser.position != parser.tokens.len() {
        return Err(parser.error("trailing tokens after protocol"));
    }
    Ok(template)
}

struct Parser<'a> {
    tokens: &'a [Spanned<'a>],
    position: usize,
    /// The name of every distinct identifier met so far, so the
    /// process-wide table is consulted once per identifier and parse.
    names: BTreeMap<&'a str, Name>,
    /// Declared plain roles.
    singles: Vec<Name>,
    /// Declared role families.
    families: Vec<Name>,
    /// In-scope index variables: template parameters, then any enclosing
    /// `foreach` variables.
    index_vars: Vec<Name>,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Spanned<'a>]) -> Self {
        Parser {
            tokens,
            position: 0,
            names: BTreeMap::new(),
            singles: Vec::new(),
            families: Vec::new(),
            index_vars: Vec::new(),
        }
    }

    /// The name of `ident`.
    fn intern(&mut self, ident: &'a str) -> Name {
        *self.names.entry(ident).or_insert_with(|| Name::new(ident))
    }

    /// The next token as the name of a `what`.
    fn name(&mut self, what: &str) -> Result<Name, ScribbleError> {
        let ident = self.ident(what)?;
        Ok(self.intern(ident))
    }

    fn error(&self, message: impl Into<String>) -> ScribbleError {
        let (line, column) = self
            .tokens
            .get(self.position.min(self.tokens.len().saturating_sub(1)))
            .map(|t| (t.line, t.column))
            .unwrap_or((0, 0));
        ScribbleError {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.position).map(|t| &t.token)
    }

    fn next(&mut self) -> Option<&Token<'a>> {
        let token = self.tokens.get(self.position).map(|t| &t.token);
        if token.is_some() {
            self.position += 1;
        }
        token
    }

    fn expect(&mut self, expected: &Token<'a>, what: &str) -> Result<(), ScribbleError> {
        if self.peek() == Some(expected) {
            self.position += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), ScribbleError> {
        match self.next() {
            Some(&Token::Ident(ident)) if ident == word => Ok(()),
            _ => {
                self.position = self.position.saturating_sub(1);
                Err(self.error(format!("expected keyword `{word}`")))
            }
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ScribbleError> {
        match self.next() {
            Some(&Token::Ident(ident)) => Ok(ident),
            _ => {
                self.position = self.position.saturating_sub(1);
                Err(self.error(format!("expected {what}")))
            }
        }
    }

    fn parse_protocol(&mut self) -> Result<Template, ScribbleError> {
        self.keyword("global")?;
        self.keyword("protocol")?;
        let name = self.name("protocol name")?;
        self.expect(&Token::LParen, "`(`")?;
        let mut roles = Vec::new();
        loop {
            self.keyword("role")?;
            let role = self.name("role name")?;
            let decl = if self.peek() == Some(&Token::LBracket) {
                self.position += 1;
                let lo = self.parse_index_expr()?;
                self.expect(&Token::DotDot, "`..` in role family range")?;
                let hi = self.parse_index_expr()?;
                self.expect(&Token::RBracket, "`]`")?;
                self.families.push(role);
                RoleDecl::Family { name: role, lo, hi }
            } else {
                self.singles.push(role);
                RoleDecl::Single(role)
            };
            roles.push(decl);
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                _ => return Err(self.error("expected `,` or `)` in role list")),
            }
        }
        // Family-bound variables are the template's parameters; they are
        // in scope throughout the body.
        let mut params = BTreeSet::new();
        for decl in &roles {
            if let RoleDecl::Family { lo, hi, .. } = decl {
                lo.free_vars(&mut params);
                hi.free_vars(&mut params);
            }
        }
        for param in &params {
            if self.singles.contains(param) || self.families.contains(param) {
                return Err(self.error(format!(
                    "parameter `{param}` collides with a role of the same name"
                )));
            }
        }
        self.index_vars.extend(params);
        self.expect(&Token::LBrace, "`{`")?;
        let body = self.parse_block(false)?;
        self.expect(&Token::RBrace, "`}`")?;
        Ok(Template { name, roles, body })
    }

    /// Parses `product (+|-) product ...`, left-associative; `*` binds
    /// tighter than `+`/`-`, so `2*i-1` strides over odd indices.
    fn parse_index_expr(&mut self) -> Result<IndexExpr, ScribbleError> {
        let mut expr = self.parse_index_product()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.position += 1;
                    let right = self.parse_index_product()?;
                    expr = IndexExpr::Add(Box::new(expr), Box::new(right));
                }
                Some(Token::Minus) => {
                    self.position += 1;
                    let right = self.parse_index_product()?;
                    expr = IndexExpr::Sub(Box::new(expr), Box::new(right));
                }
                _ => return Ok(expr),
            }
        }
    }

    /// Parses `term (* term) ...`, left-associative.
    fn parse_index_product(&mut self) -> Result<IndexExpr, ScribbleError> {
        let mut expr = self.parse_index_term()?;
        while self.peek() == Some(&Token::Star) {
            self.position += 1;
            let right = self.parse_index_term()?;
            expr = IndexExpr::Mul(Box::new(expr), Box::new(right));
        }
        Ok(expr)
    }

    /// Every variable of `expr` must be a template parameter or an
    /// enclosing `foreach` variable — otherwise the expression could
    /// never be evaluated by any instantiation.
    fn check_index_scope(&self, expr: &IndexExpr) -> Result<(), ScribbleError> {
        // The error names the first unknown variable in text order.
        let mut unknown: Option<Name> = None;
        expr.each_var(&mut |var| {
            if !self.index_vars.contains(&var) {
                unknown = Some(unknown.map_or(var, |first| first.min(var)));
            }
        });
        match unknown {
            None => Ok(()),
            Some(var) => Err(self.error(format!(
                "unknown index variable `{var}` (not a parameter or \
                 enclosing `foreach` variable)"
            ))),
        }
    }

    fn parse_index_term(&mut self) -> Result<IndexExpr, ScribbleError> {
        let ident = self.ident("index expression")?;
        if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return match ident.parse::<i64>() {
                Ok(value) => Ok(IndexExpr::Lit(value)),
                Err(_) => {
                    self.position = self.position.saturating_sub(1);
                    Err(self.error(format!("malformed integer literal `{ident}`")))
                }
            };
        }
        Ok(IndexExpr::Var(self.intern(ident)))
    }

    /// Parses a role reference: `a` or `w[expr]`, checking declarations
    /// and index-variable scope.
    fn parse_role_ref(&mut self) -> Result<RoleRef, ScribbleError> {
        let name = self.name("role name")?;
        if self.peek() == Some(&Token::LBracket) {
            if !self.families.contains(&name) {
                return Err(self.error(format!("`{name}` is not a role family")));
            }
            self.position += 1;
            let index = self.parse_index_expr()?;
            self.expect(&Token::RBracket, "`]`")?;
            self.check_index_scope(&index)?;
            return Ok(RoleRef::Indexed {
                family: name,
                index,
            });
        }
        if self.families.contains(&name) {
            return Err(self.error(format!("role family `{name}` must be indexed: `{name}[i]`")));
        }
        if !self.singles.contains(&name) {
            return Err(self.error(format!("undeclared role {name}")));
        }
        Ok(RoleRef::Plain(name))
    }

    /// Parses a `;`-sequenced block into a right-nested template type.
    /// Inside a `foreach` body (`in_foreach`), only message statements and
    /// nested `foreach`s are allowed, so expansion stays a straight-line
    /// splice.
    fn parse_block(&mut self, in_foreach: bool) -> Result<TemplateType, ScribbleError> {
        match self.peek() {
            None | Some(Token::RBrace) => Ok(TemplateType::End),
            Some(&Token::Ident(word)) => match word {
                "rec" | "continue" | "choice" if in_foreach => Err(self.error(format!(
                    "`{word}` is not allowed inside a `foreach` body \
                     (only messages and nested `foreach`s are)"
                ))),
                "rec" => {
                    self.position += 1;
                    let var = self.name("recursion label")?;
                    self.expect(&Token::LBrace, "`{`")?;
                    let body = self.parse_block(false)?;
                    self.expect(&Token::RBrace, "`}`")?;
                    self.ensure_block_end("rec")?;
                    Ok(TemplateType::Rec {
                        var,
                        body: Box::new(body),
                    })
                }
                "continue" => {
                    self.position += 1;
                    let var = self.name("recursion label")?;
                    self.expect(&Token::Semi, "`;`")?;
                    self.ensure_block_end("continue")?;
                    Ok(TemplateType::Var(var))
                }
                "choice" => {
                    self.position += 1;
                    self.keyword("at")?;
                    let at = self.parse_role_ref()?;
                    let mut branches = Vec::new();
                    loop {
                        self.expect(&Token::LBrace, "`{`")?;
                        branches.push(self.parse_block(false)?);
                        self.expect(&Token::RBrace, "`}`")?;
                        if let Some(&Token::Ident(word)) = self.peek() {
                            if word == "or" {
                                self.position += 1;
                                continue;
                            }
                        }
                        break;
                    }
                    if branches.len() < 2 {
                        return Err(self.error("choice requires at least two branches"));
                    }
                    self.ensure_block_end("choice")?;
                    Ok(TemplateType::Choice { at, branches })
                }
                "foreach" => {
                    self.position += 1;
                    let var = self.name("foreach variable")?;
                    if self.index_vars.contains(&var) {
                        return Err(self.error(format!(
                            "`foreach` variable `{var}` shadows a parameter or \
                             enclosing `foreach` variable"
                        )));
                    }
                    if self.singles.contains(&var) || self.families.contains(&var) {
                        return Err(self.error(format!(
                            "`foreach` variable `{var}` collides with a role name"
                        )));
                    }
                    self.keyword("in")?;
                    let lo = self.parse_index_expr()?;
                    self.expect(&Token::DotDot, "`..` in foreach range")?;
                    let hi = self.parse_index_expr()?;
                    // Bounds may only use parameters and enclosing
                    // `foreach` variables; anything else could never be
                    // bound by any instantiation.
                    self.check_index_scope(&lo)?;
                    self.check_index_scope(&hi)?;
                    self.expect(&Token::LBrace, "`{`")?;
                    self.index_vars.push(var);
                    let body = self.parse_block(true);
                    self.index_vars.pop();
                    let body = body?;
                    self.expect(&Token::RBrace, "`}`")?;
                    let continuation = self.parse_block(in_foreach)?;
                    Ok(TemplateType::Foreach {
                        var,
                        lo,
                        hi,
                        body: Box::new(body),
                        continuation: Box::new(continuation),
                    })
                }
                _ => {
                    // Message statement: label(sort?) from a to b;
                    let label = self.name("message label")?;
                    self.expect(&Token::LParen, "`(`")?;
                    let sort = match self.peek() {
                        Some(Token::RParen) => Sort::Unit,
                        Some(Token::Ident(_)) => {
                            let sort = self.ident("sort")?;
                            Sort::from_str(sort).expect("sort parsing is infallible")
                        }
                        _ => return Err(self.error("expected sort or `)`")),
                    };
                    self.expect(&Token::RParen, "`)`")?;
                    self.keyword("from")?;
                    let from = self.parse_role_ref()?;
                    self.keyword("to")?;
                    let to = self.parse_role_ref()?;
                    self.expect(&Token::Semi, "`;`")?;
                    let continuation = self.parse_block(in_foreach)?;
                    Ok(TemplateType::Comm {
                        from,
                        to,
                        label,
                        sort,
                        continuation: Box::new(continuation),
                    })
                }
            },
            Some(_) => Err(self.error("expected a statement")),
        }
    }

    /// `rec`/`continue`/`choice` must end their enclosing block: anything
    /// sequenced after them has no defined meaning in the global type.
    fn ensure_block_end(&self, construct: &str) -> Result<(), ScribbleError> {
        match self.peek() {
            None | Some(Token::RBrace) => Ok(()),
            _ => Err(self.error(format!(
                "`{construct}` must be the final statement of its block"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::project;

    const STREAMING: &str = r#"
        global protocol Streaming(role s, role t) {
            rec loop {
                ready() from t to s;
                choice at s {
                    value() from s to t;
                    continue loop;
                } or {
                    stop() from s to t;
                }
            }
        }
    "#;

    const DOUBLE_BUFFERING: &str = r#"
        global protocol DoubleBuffering(role s, role k, role t) {
            rec loop {
                ready() from k to s;
                value() from s to k;
                ready() from t to k;
                value() from k to t;
                continue loop;
            }
        }
    "#;

    #[test]
    fn parses_streaming() {
        let protocol = parse(STREAMING).unwrap();
        assert_eq!(protocol.name, Name::from("Streaming"));
        assert_eq!(protocol.roles, vec![Name::from("s"), Name::from("t")]);
        assert_eq!(
            protocol.body,
            GlobalType::rec(
                "loop",
                GlobalType::message(
                    "t",
                    "s",
                    "ready",
                    Sort::Unit,
                    GlobalType::choice(
                        "s",
                        "t",
                        [
                            ("value".into(), Sort::Unit, GlobalType::Var("loop".into())),
                            ("stop".into(), Sort::Unit, GlobalType::End),
                        ],
                    ),
                ),
            )
        );
    }

    #[test]
    fn parses_double_buffering_listing1() {
        let protocol = parse(DOUBLE_BUFFERING).unwrap();
        let kernel = project(&protocol.body, &"k".into()).unwrap();
        // Recursion variable names differ ("loop" vs "x"); compare up to
        // alpha-equivalence by comparing the generated FSMs.
        let expected =
            crate::local::parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
        let fsm_actual = crate::fsm::from_local(&"k".into(), &kernel).unwrap();
        let fsm_expected = crate::fsm::from_local(&"k".into(), &expected).unwrap();
        assert_eq!(fsm_actual, fsm_expected);
    }

    #[test]
    fn comments_are_skipped() {
        let source = r#"
            // the two-party streaming protocol
            global protocol P(role a, role b) {
                hello() from a to b; // greeting
            }
        "#;
        let protocol = parse(source).unwrap();
        assert_eq!(
            protocol.body,
            GlobalType::message("a", "b", "hello", Sort::Unit, GlobalType::End)
        );
    }

    #[test]
    fn rejects_undeclared_role() {
        let source = "global protocol P(role a, role b) { hi() from a to c; }";
        assert!(parse(source).is_err());
    }

    #[test]
    fn rejects_statement_after_continue() {
        let source = r#"
            global protocol P(role a, role b) {
                rec l { continue l; hi() from a to b; }
            }
        "#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn rejects_single_branch_choice() {
        let source = r#"
            global protocol P(role a, role b) {
                choice at a { hi() from a to b; }
            }
        "#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn payload_sorts_are_parsed() {
        let source = "global protocol P(role a, role b) { v(i32) from a to b; }";
        let protocol = parse(source).unwrap();
        assert_eq!(
            protocol.body,
            GlobalType::message("a", "b", "v", Sort::I32, GlobalType::End)
        );
    }

    // ---- parameterised templates ------------------------------------

    const PIPELINE: &str = r#"
        global protocol Pipeline(role s, role w[1..n], role t) {
            start() from s to w[1];
            foreach i in 1..n-1 {
                hop() from w[i] to w[i+1];
            }
            done() from w[n] to t;
        }
    "#;

    fn bind(pairs: &[(&str, i64)]) -> Bindings {
        pairs
            .iter()
            .map(|(name, value)| (Name::from(*name), *value))
            .collect()
    }

    #[test]
    fn template_reports_params() {
        let template = parse_template(PIPELINE).unwrap();
        assert!(template.is_parameterised());
        assert_eq!(
            template.params().into_iter().collect::<Vec<_>>(),
            vec![Name::from("n")]
        );
    }

    #[test]
    fn pipeline_instantiates_and_splices() {
        let template = parse_template(PIPELINE).unwrap();
        let protocol = template.instantiate(&bind(&[("n", 3)])).unwrap();
        assert_eq!(
            protocol.roles,
            ["s", "w1", "w2", "w3", "t"].map(Name::from).to_vec()
        );
        assert_eq!(
            protocol.body,
            GlobalType::message(
                "s",
                "w1",
                "start",
                Sort::Unit,
                GlobalType::message(
                    "w1",
                    "w2",
                    "hop",
                    Sort::Unit,
                    GlobalType::message(
                        "w2",
                        "w3",
                        "hop",
                        Sort::Unit,
                        GlobalType::message("w3", "t", "done", Sort::Unit, GlobalType::End),
                    ),
                ),
            )
        );
    }

    #[test]
    fn non_linear_index_expressions_instantiate() {
        // `2*i` / `i*2-1` strides: a coordinator gathers from the odd and
        // even member of each pair.
        let source = r#"
            global protocol Gather(role c, role w[1..2*n]) {
                foreach i in 1..n {
                    odd() from w[i*2-1] to c;
                    even() from w[2*i] to c;
                }
            }
        "#;
        let template = parse_template(source).unwrap();
        assert_eq!(template.params(), [Name::from("n")].into_iter().collect());
        let protocol = template.instantiate(&bind(&[("n", 2)])).unwrap();
        assert_eq!(
            protocol.roles,
            ["c", "w1", "w2", "w3", "w4"].map(Name::from).to_vec()
        );
        assert_eq!(
            protocol.body,
            GlobalType::message(
                "w1",
                "c",
                "odd",
                Sort::Unit,
                GlobalType::message(
                    "w2",
                    "c",
                    "even",
                    Sort::Unit,
                    GlobalType::message(
                        "w3",
                        "c",
                        "odd",
                        Sort::Unit,
                        GlobalType::message("w4", "c", "even", Sort::Unit, GlobalType::End),
                    ),
                ),
            )
        );
    }

    #[test]
    fn star_binds_tighter_than_additive_operators() {
        let tokens = lex("2*i-1+n*2").unwrap();
        let mut parser = Parser::new(&tokens);
        let expr = parser.parse_index_expr().unwrap();
        assert_eq!(expr.to_string(), "2*i-1+n*2");
        let env: Bindings = bind(&[("i", 3), ("n", 5)]);
        assert_eq!(expr.eval(&env).unwrap(), 2 * 3 - 1 + 5 * 2);
        // Display parenthesises additive factors it would otherwise lose.
        let product = IndexExpr::Mul(
            Box::new(IndexExpr::Add(
                Box::new(IndexExpr::Lit(1)),
                Box::new(IndexExpr::Var(Name::from("i"))),
            )),
            Box::new(IndexExpr::Lit(2)),
        );
        assert_eq!(product.to_string(), "(1+i)*2");
    }

    #[test]
    fn empty_foreach_expands_to_nothing() {
        let template = parse_template(PIPELINE).unwrap();
        // n = 1: the foreach range 1..0 is empty.
        let protocol = template.instantiate(&bind(&[("n", 1)])).unwrap();
        assert_eq!(
            protocol.body,
            GlobalType::message(
                "s",
                "w1",
                "start",
                Sort::Unit,
                GlobalType::message("w1", "t", "done", Sort::Unit, GlobalType::End),
            )
        );
    }

    #[test]
    fn literal_family_bounds_need_no_bindings() {
        let source = r#"
            global protocol P(role w[1..2]) {
                ping() from w[1] to w[2];
            }
        "#;
        let protocol = parse(source).unwrap();
        assert_eq!(protocol.roles, ["w1", "w2"].map(Name::from).to_vec());
    }

    #[test]
    fn missing_binding_is_an_error() {
        let template = parse_template(PIPELINE).unwrap();
        let err = template.instantiate(&Bindings::new()).unwrap_err();
        assert!(err.message.contains("unbound parameter `n`"), "{err}");
    }

    #[test]
    fn unknown_binding_is_an_error() {
        let template = parse_template(PIPELINE).unwrap();
        let err = template
            .instantiate(&bind(&[("n", 2), ("m", 1)]))
            .unwrap_err();
        assert!(err.message.contains("unknown parameter `m`"), "{err}");
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                hi() from a to w[n+1];
            }
        "#;
        let template = parse_template(source).unwrap();
        let err = template.instantiate(&bind(&[("n", 2)])).unwrap_err();
        assert!(err.message.contains("outside the declared range"), "{err}");
    }

    #[test]
    fn identifiers_are_source_slices_with_char_columns() {
        let tokens = lex("rôle_1(é)\n  w").unwrap();
        let found: Vec<_> = tokens.iter().map(|t| (t.token, t.line, t.column)).collect();
        assert_eq!(
            found,
            [
                (Token::Ident("rôle_1"), 1, 1),
                (Token::LParen, 1, 7),
                (Token::Ident("é"), 1, 8),
                (Token::RParen, 1, 9),
                (Token::Ident("w"), 2, 3),
            ]
        );
    }

    #[test]
    fn index_overflow_is_an_error_naming_the_expression() {
        let gather = include_str!("../../codegen/tests/protocols/gather.scr");
        let template = parse_template(gather).unwrap();
        let err = template
            .instantiate(&bind(&[("n", 4_611_686_018_427_387_904)]))
            .unwrap_err();
        assert_eq!(err.message, "`2*n` overflows a 64-bit integer");
    }

    #[test]
    fn empty_family_is_an_error() {
        let template = parse_template(PIPELINE).unwrap();
        let err = template.instantiate(&bind(&[("n", 0)])).unwrap_err();
        assert!(err.message.contains("is empty"), "{err}");
    }

    #[test]
    fn family_expansion_collision_is_an_error() {
        let source = r#"
            global protocol P(role w1, role w[1..n]) {
                hi() from w1 to w[n];
            }
        "#;
        let template = parse_template(source).unwrap();
        let err = template.instantiate(&bind(&[("n", 2)])).unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }

    #[test]
    fn rejects_unknown_index_variable() {
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                hi() from a to w[j];
            }
        "#;
        assert!(parse_template(source)
            .unwrap_err()
            .message
            .contains("unknown index variable `j`"));
    }

    #[test]
    fn rejects_unknown_variable_in_foreach_bounds() {
        // `k` is bound by no role family, so no `--param` set could ever
        // instantiate this template; reject it at parse time.
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                foreach i in 1..k {
                    hi() from a to w[1];
                }
            }
        "#;
        assert!(parse_template(source)
            .unwrap_err()
            .message
            .contains("unknown index variable `k`"));
    }

    #[test]
    fn rejects_unindexed_family_reference() {
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                hi() from a to w;
            }
        "#;
        assert!(parse_template(source)
            .unwrap_err()
            .message
            .contains("must be indexed"));
    }

    #[test]
    fn rejects_rec_inside_foreach() {
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                foreach i in 1..n {
                    rec l { hi() from a to w[i]; continue l; }
                }
            }
        "#;
        assert!(parse_template(source)
            .unwrap_err()
            .message
            .contains("not allowed inside a `foreach`"));
    }

    #[test]
    fn rejects_shadowing_foreach_variable() {
        let source = r#"
            global protocol P(role a, role w[1..n]) {
                foreach i in 1..n {
                    foreach i in 1..n { hi() from a to w[i]; }
                }
            }
        "#;
        assert!(parse_template(source)
            .unwrap_err()
            .message
            .contains("shadows"));
    }

    #[test]
    fn nested_foreach_expands_all_pairs() {
        let source = r#"
            global protocol P(role w[1..n]) {
                foreach i in 1..n-1 {
                    foreach j in i+1..n {
                        hi() from w[i] to w[j];
                    }
                }
            }
        "#;
        let template = parse_template(source).unwrap();
        let protocol = template.instantiate(&bind(&[("n", 3)])).unwrap();
        // Pairs in order: (1,2), (1,3), (2,3).
        let mut messages = Vec::new();
        let mut body = &protocol.body;
        while let GlobalType::Comm { from, to, branches } = body {
            messages.push((from.to_string(), to.to_string()));
            body = &branches[0].continuation;
        }
        assert_eq!(
            messages,
            vec![
                ("w1".into(), "w2".into()),
                ("w1".into(), "w3".into()),
                ("w2".into(), "w3".into()),
            ] as Vec<(String, String)>
        );
    }

    #[test]
    fn parameterised_choice_projects_per_instance() {
        // A parameterised ring with a stop signal: every instantiation
        // must project for every family member.
        let source = r#"
            global protocol PRing(role w[1..n]) {
                rec loop {
                    choice at w[1] {
                        token() from w[1] to w[2];
                        foreach i in 2..n-1 {
                            token() from w[i] to w[i+1];
                        }
                        token() from w[n] to w[1];
                        continue loop;
                    } or {
                        stop() from w[1] to w[2];
                        foreach i in 2..n-1 {
                            stop() from w[i] to w[i+1];
                        }
                        stop() from w[n] to w[1];
                    }
                }
            }
        "#;
        let template = parse_template(source).unwrap();
        for n in 2..=5 {
            let protocol = template.instantiate(&bind(&[("n", n)])).unwrap();
            assert_eq!(protocol.roles.len(), n as usize);
            for role in &protocol.roles {
                project(&protocol.body, role)
                    .unwrap_or_else(|e| panic!("projection of {role} failed at n={n}: {e}"));
            }
        }
    }
}
