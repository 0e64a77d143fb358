//! Offline stand-in for `serde_derive`, written against `proc_macro`
//! alone (no `syn`, no `quote`): the item is read token by token and
//! the impl is assembled as source text.
//!
//! Supported: structs (named, tuple, unit) and enums (unit, tuple and
//! struct variants) without generic parameters; container attributes
//! `rename_all`, `tag`, `untagged`, `default`, `deny_unknown_fields`
//! (accepted, not enforced); variant attributes `rename`, `alias`;
//! field attributes `rename`, `alias`, `default`, `default = "path"`,
//! `flatten`, `skip`, `skip_serializing`, `skip_deserializing`,
//! `skip_serializing_if = "path"`. Anything else is a compile error
//! that names what is missing, so a gap never passes silently.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// `#[serde(...)]` arguments gathered from one item, variant or field.
#[derive(Default, Clone)]
struct Attrs {
    rename: Option<String>,
    rename_all: Option<String>,
    tag: Option<String>,
    untagged: bool,
    /// `Some(None)` is `default`, `Some(Some(p))` is `default = "p"`.
    default: Option<Option<String>>,
    flatten: bool,
    skip_ser: bool,
    skip_de: bool,
    skip_ser_if: Option<String>,
    aliases: Vec<String>,
}

struct Field {
    /// Identifier for named fields, index for tuple fields.
    member: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    ident: String,
    attrs: Attrs,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    ident: String,
    attrs: Attrs,
    body: Body,
}

type Parsed<T> = Result<T, String>;

fn literal_text(tt: &TokenTree) -> Parsed<String> {
    let s = tt.to_string();
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a string literal, found `{s}`"))
}

/// Read the inside of one `serde(...)` group into `attrs`.
fn parse_serde_args(group: TokenStream, attrs: &mut Attrs) -> Parsed<()> {
    let mut it = group.into_iter().peekable();
    while let Some(tt) = it.next() {
        let key = match tt {
            TokenTree::Ident(i) => i.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => return Err(format!("unexpected `{other}` in #[serde(...)]")),
        };
        let value = match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                it.next();
                let lit = it
                    .next()
                    .ok_or_else(|| format!("`{key} =` needs a value"))?;
                Some(literal_text(&lit)?)
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("alias", Some(v)) => attrs.aliases.push(v),
            ("untagged", None) => attrs.untagged = true,
            ("default", v) => attrs.default = Some(v),
            ("flatten", None) => attrs.flatten = true,
            ("skip", None) => {
                attrs.skip_ser = true;
                attrs.skip_de = true;
            }
            ("skip_serializing", None) => attrs.skip_ser = true,
            ("skip_deserializing", None) => attrs.skip_de = true,
            ("skip_serializing_if", Some(v)) => attrs.skip_ser_if = Some(v),
            ("deny_unknown_fields", None) => {}
            (other, _) => {
                return Err(format!(
                    "the offline serde_derive stand-in does not support #[serde({other})]"
                ))
            }
        }
    }
    Ok(())
}

/// Consume leading `#[...]` attributes, keeping the `serde` ones.
fn parse_attrs(it: &mut Tokens) -> Parsed<Attrs> {
    let mut attrs = Attrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            return Err("`#` not followed by an attribute".into());
        };
        let mut inner = g.stream().into_iter();
        if matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            if let Some(TokenTree::Group(args)) = inner.next() {
                parse_serde_args(args.stream(), &mut attrs)?;
            }
        }
    }
    Ok(attrs)
}

/// Consume `pub`, `pub(crate)` and the like.
fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consume tokens up to and including the next comma that is not inside
/// `<...>` (commas inside `(...)`, `[...]` and `{...}` are already
/// hidden inside groups). Returns whether anything was consumed.
fn skip_to_comma(it: &mut Tokens) -> bool {
    let mut depth = 0usize;
    let mut any = false;
    let mut prev_dash = false;
    for tt in it.by_ref() {
        any = true;
        let ch = match &tt {
            TokenTree::Punct(p) => Some(p.as_char()),
            _ => None,
        };
        match ch {
            Some(',') if depth == 0 => return true,
            Some('<') => depth += 1,
            // The `>` of `->` closes nothing.
            Some('>') if !prev_dash => depth = depth.saturating_sub(1),
            _ => {}
        }
        prev_dash = ch == Some('-');
    }
    any
}

fn parse_named_fields(stream: TokenStream) -> Parsed<Vec<Field>> {
    let mut it = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = parse_attrs(&mut it)?;
        skip_visibility(&mut it);
        let Some(tt) = it.next() else { break };
        let TokenTree::Ident(name) = tt else {
            return Err(format!("expected a field name, found `{tt}`"));
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        skip_to_comma(&mut it);
        fields.push(Field {
            member: name.to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_tuple_fields(stream: TokenStream) -> Parsed<Vec<Field>> {
    let mut it = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = parse_attrs(&mut it)?;
        skip_visibility(&mut it);
        if !skip_to_comma(&mut it) {
            break;
        }
        fields.push(Field {
            member: fields.len().to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Parsed<Vec<Variant>> {
    let mut it = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let attrs = parse_attrs(&mut it)?;
        let Some(tt) = it.next() else { break };
        let TokenTree::Ident(name) = tt else {
            return Err(format!("expected a variant name, found `{tt}`"));
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = Shape::Tuple(parse_tuple_fields(g.stream())?);
                it.next();
                s
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let s = Shape::Named(parse_named_fields(g.stream())?);
                it.next();
                s
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        skip_to_comma(&mut it);
        variants.push(Variant {
            ident: name.to_string(),
            attrs,
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Parsed<Item> {
    let mut it = input.into_iter().peekable();
    let attrs = parse_attrs(&mut it)?;
    skip_visibility(&mut it);
    let keyword = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    let ident = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected the type's name, found {other:?}")),
    };
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the offline serde_derive stand-in does not support generic parameters (on `{ident}`)"
        ));
    }
    let body = match (keyword.as_str(), it.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(parse_tuple_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        (k, other) => {
            return Err(format!(
                "cannot derive for `{k} {ident}` followed by {other:?}"
            ))
        }
    };
    Ok(Item { ident, attrs, body })
}

/// Split an identifier into lower-case words: at `_` and before each
/// upper-case letter.
fn words(ident: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for ch in ident.chars() {
        if ch == '_' {
            out.push(String::new());
        } else if ch.is_uppercase() || out.is_empty() {
            out.push(ch.to_lowercase().collect());
        } else if let Some(last) = out.last_mut() {
            last.push(ch);
        }
    }
    out.retain(|w| !w.is_empty());
    out
}

fn capitalized(w: &str) -> String {
    let mut c = w.chars();
    c.next()
        .map(|f| f.to_uppercase().chain(c).collect())
        .unwrap_or_default()
}

/// The serialized name of `ident` under its own attributes and the
/// container's `rename_all` rule.
fn wire_name(ident: &str, own: &Attrs, rule: Option<&str>) -> Parsed<String> {
    let ident = ident.strip_prefix("r#").unwrap_or(ident);
    if let Some(r) = &own.rename {
        return Ok(r.clone());
    }
    let Some(rule) = rule else {
        return Ok(ident.to_string());
    };
    let w = words(ident);
    Ok(match rule {
        "lowercase" => w.concat(),
        "UPPERCASE" => w.concat().to_uppercase(),
        "snake_case" => w.join("_"),
        "SCREAMING_SNAKE_CASE" => w.join("_").to_uppercase(),
        "kebab-case" => w.join("-"),
        "SCREAMING-KEBAB-CASE" => w.join("-").to_uppercase(),
        "PascalCase" => w.iter().map(|x| capitalized(x)).collect(),
        "camelCase" => w
            .iter()
            .enumerate()
            .map(|(i, x)| if i == 0 { x.clone() } else { capitalized(x) })
            .collect(),
        other => return Err(format!("unknown rename_all rule \"{other}\"")),
    })
}

/// Statements inserting the named `fields` into the map `m`. `access`
/// turns a field identifier into an expression of reference type.
fn ser_named(
    fields: &[Field],
    rule: Option<&str>,
    reading: &str,
    access: impl Fn(&str) -> String,
) -> Parsed<String> {
    let mut out = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip_ser) {
        let acc = access(&f.member);
        let value = format!("::serde::Serialize::to_value({acc})");
        if f.attrs.flatten {
            out += &format!("::serde::__private::flatten_into(&mut m, {value}, {reading:?});");
            continue;
        }
        let key = wire_name(&f.member, &f.attrs, rule)?;
        let insert = format!("m.insert({key:?}.to_string(), {value});");
        match &f.attrs.skip_ser_if {
            Some(pred) => out += &format!("if !{pred}({acc}) {{ {insert} }}"),
            None => out += &insert,
        }
    }
    Ok(out)
}

/// A `path { field: ..., }` expression reading the named `fields` from
/// the object `m` (and, for flattened fields, from the whole value `v`).
fn de_named(
    path: &str,
    fields: &[Field],
    rule: Option<&str>,
    reading: &str,
    container_default: bool,
    container: &str,
) -> Parsed<String> {
    let mut out = format!("{path} {{");
    for f in fields {
        let name = &f.member;
        let fallback = match (&f.attrs.default, container_default) {
            (Some(Some(path)), _) => format!("Some({path})"),
            (Some(None), _) => "Some(::core::default::Default::default)".to_string(),
            (None, true) => {
                format!("Some(|| <{container} as ::core::default::Default>::default().{name})")
            }
            (None, false) => "None".to_string(),
        };
        let expr = if f.attrs.skip_de {
            match fallback
                .strip_prefix("Some(")
                .and_then(|s| s.strip_suffix(')'))
            {
                Some(make) => format!("({make})()"),
                None => "::core::default::Default::default()".to_string(),
            }
        } else if f.attrs.flatten {
            "::serde::Deserialize::from_value(v)?".to_string()
        } else {
            let key = wire_name(name, &f.attrs, rule)?;
            let aliases: Vec<String> = f.attrs.aliases.iter().map(|a| format!("{a:?}")).collect();
            format!(
                "::serde::__private::field(m, {key:?}, &[{}], {reading:?}, {fallback})?",
                aliases.join(", ")
            )
        };
        out += &format!("{name}: {expr},");
    }
    out.push('}');
    Ok(out)
}

/// `path(from element 0, from element 1, ...)` over the slice `a`.
fn de_tuple(path: &str, n: usize) -> String {
    let elems: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
        .collect();
    format!("{path}({})", elems.join(", "))
}

fn ser_struct(item: &Item, shape: &Shape) -> Parsed<String> {
    let name = &item.ident;
    Ok(match shape {
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Tuple(fields) if fields.len() == 1 => {
            "::serde::Serialize::to_value(&self.0)".to_string()
        }
        Shape::Tuple(fields) => {
            let elems: Vec<String> = (0..fields.len())
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Shape::Named(fields) => {
            let stmts = ser_named(fields, item.attrs.rename_all.as_deref(), name, |f| {
                format!("&self.{f}")
            })?;
            format!("let mut m = ::serde::Map::new(); {stmts} ::serde::Value::Object(m)")
        }
    })
}

fn de_struct(item: &Item, shape: &Shape) -> Parsed<String> {
    let name = &item.ident;
    Ok(match shape {
        Shape::Unit => format!("let _ = v; Ok({name})"),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Shape::Tuple(fields) => format!(
            "let a = ::serde::__private::tuple(v, {}, {name:?})?; Ok({})",
            fields.len(),
            de_tuple(name, fields.len())
        ),
        Shape::Named(fields) => format!(
            "let m = ::serde::__private::object(v, {name:?})?; Ok({})",
            de_named(
                name,
                fields,
                item.attrs.rename_all.as_deref(),
                name,
                item.attrs.default.is_some(),
                name
            )?
        ),
    })
}

fn ser_enum(item: &Item, variants: &[Variant]) -> Parsed<String> {
    let name = &item.ident;
    let rule = item.attrs.rename_all.as_deref();
    let mut arms = String::new();
    for var in variants {
        let vid = &var.ident;
        let wire = wire_name(vid, &var.attrs, rule)?;
        let (pattern, content) = match &var.shape {
            Shape::Unit => (String::new(), "::serde::Value::Null".to_string()),
            Shape::Tuple(fields) => {
                let binds: Vec<String> = (0..fields.len()).map(|i| format!("f{i}")).collect();
                let content = if binds.len() == 1 {
                    "::serde::Serialize::to_value(f0)".to_string()
                } else {
                    if item.attrs.tag.is_some() {
                        return Err(format!(
                            "internally tagged enum `{name}` cannot have the tuple variant `{vid}`"
                        ));
                    }
                    let elems: Vec<String> = binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                };
                (format!("({})", binds.join(", ")), content)
            }
            Shape::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.member.as_str()).collect();
                let stmts = ser_named(fields, var.attrs.rename_all.as_deref(), name, |f| {
                    f.to_string()
                })?;
                (
                    format!("{{ {} }}", binds.join(", ")),
                    format!(
                        "{{ let mut m = ::serde::Map::new(); {stmts} ::serde::Value::Object(m) }}"
                    ),
                )
            }
        };
        let value = if item.attrs.untagged {
            content
        } else if let Some(tag) = &item.attrs.tag {
            format!("::serde::__private::tagged({tag:?}, {wire:?}, {content}, {name:?})")
        } else if matches!(var.shape, Shape::Unit) {
            format!("::serde::Value::String({wire:?}.to_string())")
        } else {
            format!(
                "{{ let mut o = ::serde::Map::new(); o.insert({wire:?}.to_string(), {content}); \
                 ::serde::Value::Object(o) }}"
            )
        };
        // Bindings of skipped fields may go unused.
        arms += &format!("#[allow(unused_variables)] {name}::{vid}{pattern} => {value},");
    }
    Ok(format!("match self {{ {arms} }}"))
}

fn de_enum(item: &Item, variants: &[Variant]) -> Parsed<String> {
    let name = &item.ident;
    let rule = item.attrs.rename_all.as_deref();
    let internal = item.attrs.tag.is_some();
    // Each variant reads itself from a value called `c`: the content
    // for an externally tagged enum, the whole value otherwise.
    let mut builders = Vec::new();
    for var in variants {
        let path = format!("{name}::{}", var.ident);
        let build = match &var.shape {
            Shape::Unit if item.attrs.untagged => format!(
                "if c.is_null() {{ Ok({path}) }} else {{ \
                 Err(::serde::Error::expected(\"null\", {name:?}, c)) }}"
            ),
            Shape::Unit => format!("Ok({path})"),
            Shape::Tuple(fields) if fields.len() == 1 => {
                format!("Ok({path}(::serde::Deserialize::from_value(c)?))")
            }
            Shape::Tuple(fields) => format!(
                "{{ let a = ::serde::__private::tuple(c, {}, {name:?})?; Ok({}) }}",
                fields.len(),
                de_tuple(&path, fields.len())
            ),
            Shape::Named(fields) => format!(
                "{{ let v = c; let m = ::serde::__private::object(v, {name:?})?; Ok({}) }}",
                de_named(
                    &path,
                    fields,
                    var.attrs.rename_all.as_deref(),
                    name,
                    false,
                    name
                )?
            ),
        };
        builders.push(build);
    }
    if item.attrs.untagged {
        let mut out = String::from("let c = v;");
        for b in &builders {
            out += &format!(
                "if let Ok(x) = (|| -> Result<{name}, ::serde::Error> {{ {b} }})() {{ return Ok(x); }}"
            );
        }
        out += &format!(
            "Err(::serde::Error::custom(\"data did not match any variant of untagged enum {name}\"))"
        );
        return Ok(out);
    }
    let mut arms = String::new();
    for (var, build) in variants.iter().zip(&builders) {
        let mut names = vec![wire_name(&var.ident, &var.attrs, rule)?];
        names.extend(var.attrs.aliases.iter().cloned());
        let pattern: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
        arms += &format!("{} => {build},", pattern.join(" | "));
    }
    arms += &format!("other => Err(::serde::__private::unknown_variant(other, {name:?})),");
    let head = match &item.attrs.tag {
        Some(tag) if internal => {
            format!("let name = ::serde::__private::tag_of(v, {tag:?}, {name:?})?; let c = v;")
        }
        _ => format!("let (name, c) = ::serde::__private::variant(v, {name:?})?;"),
    };
    Ok(format!(
        "{head} #[allow(unused_variables)] let c = c; match name {{ {arms} }}"
    ))
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let code = parse_item(input).and_then(|item| {
        let name = &item.ident;
        let body = match (&item.body, serialize) {
            (Body::Struct(shape), true) => ser_struct(&item, shape)?,
            (Body::Struct(shape), false) => de_struct(&item, shape)?,
            (Body::Enum(variants), true) => ser_enum(&item, variants)?,
            (Body::Enum(variants), false) => de_enum(&item, variants)?,
        };
        Ok(if serialize {
            format!(
                "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
                 fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
            )
        } else {
            format!(
                "#[automatically_derived] impl<'de> ::serde::Deserialize<'de> for {name} {{ \
                 fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> \
                 {{ {body} }} }}"
            )
        })
    });
    let code = code.unwrap_or_else(|msg| format!("compile_error!({msg:?});"));
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive stand-in produced unparsable code: {e}\");")
            .parse()
            .expect("a compile_error! invocation parses")
    })
}

/// Derive the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derive the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}
