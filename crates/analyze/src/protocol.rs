//! Protocol exhaustiveness.
//!
//! The fs-serve wire protocol is declared once: the `wire_enum!` tables
//! for `Request` and `Response` in `protocol.rs` give every message its
//! variant name, its opcode and — for requests — the response variant it
//! draws (`Load = 1 => Loaded { … }`). This analysis reads that table
//! and keeps the places that must agree with it in sync:
//!
//! - opcode values must be unique within each direction;
//! - every request must name its response (`=> Reply`), and the named
//!   variant must exist in the `Response` table;
//! - every request needs a `Request::V` construction in `client.rs` (a
//!   `ServeClient` method that can send it);
//! - every request's opcode name (`GnnInfer` → `REQ_GNN_INFER`) must be
//!   mentioned in DESIGN.md;
//! - the dispatch `match`es in `server.rs` and `router.rs` must carry no
//!   catch-all arm, so rustc's exhaustiveness check is what guarantees
//!   every request a dispatch arm in both front ends.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::model::FileModel;

/// Inputs: the protocol-relevant file models (any may be absent, which
/// skips the checks needing it) and the DESIGN.md text.
pub struct ProtocolInputs<'a> {
    pub protocol: Option<&'a FileModel>,
    pub server: Option<&'a FileModel>,
    pub router: Option<&'a FileModel>,
    pub client: Option<&'a FileModel>,
    pub design_md: Option<&'a str>,
}

/// One row of a declared message table.
struct Message {
    variant: String,
    opcode: String,
    reply: Option<String>,
    line: u32,
}

/// How the token at `ci` changes bracket depth: +1 for an opening
/// bracket of any kind, −1 for a closing one.
fn nesting(m: &FileModel, ci: usize) -> isize {
    let is_any = |set: &str| set.chars().any(|p| m.is_punct(ci, p));
    isize::from(is_any("{([")) - isize::from(is_any("})]"))
}

/// The rows of `enum <name> … { Variant = opcode [=> Reply] [{ … }], … }`:
/// at depth 1 of the enum body an identifier followed by `=` and a
/// number starts a row (field lists and attributes sit deeper).
fn declared_messages(m: &FileModel, name: &str) -> Vec<Message> {
    let mut out = Vec::new();
    let Some(at) = (0..m.len().saturating_sub(1))
        .find(|&ci| m.is_ident(ci, "enum") && m.is_ident(ci + 1, name))
    else {
        return out;
    };
    let Some(open) = (at..m.len()).find(|&ci| m.is_punct(ci, '{')) else { return out };
    let close = m.matching_brace(open);
    let punct = |ci: usize, p: char| ci < close && m.is_punct(ci, p);
    let kind = |ci: usize| (ci < close).then(|| m.kind(ci));
    let mut depth = 0isize;
    for ci in open..close {
        depth += nesting(m, ci);
        if depth == 1
            && m.kind(ci) == TokKind::Ident
            && punct(ci + 1, '=')
            && kind(ci + 2) == Some(TokKind::Number)
        {
            let arrow = punct(ci + 3, '=') && punct(ci + 4, '>');
            out.push(Message {
                variant: m.text(ci).to_string(),
                opcode: m.text(ci + 2).to_string(),
                reply: (arrow && kind(ci + 5) == Some(TokKind::Ident))
                    .then(|| m.text(ci + 5).to_string()),
                line: m.line(ci),
            });
        }
    }
    out
}

/// The opcode name the docs use for a variant: `GnnInfer` under `REQ`
/// is `REQ_GNN_INFER`.
fn opcode_name(prefix: &str, variant: &str) -> String {
    let mut name = prefix.to_string();
    for ch in variant.chars() {
        if ch.is_ascii_uppercase() {
            name.push('_');
        }
        name.push(ch.to_ascii_uppercase());
    }
    name
}

/// The line of a catch-all arm (`_ =>` or a lone binding) in the
/// `match` of `fn dispatch`, if it has one.
fn catch_all_arm(m: &FileModel) -> Option<u32> {
    let (lo, hi) = m.fn_body("dispatch", None)?;
    let at = (lo..hi).find(|&ci| m.is_ident(ci, "match"))?;
    let open = (at..hi).find(|&ci| m.is_punct(ci, '{'))?;
    let close = m.matching_brace(open);
    let mut depth = 0isize;
    for ci in open..close {
        depth += nesting(m, ci);
        // An arm starts after the match's `{`, after a `,`, or after the
        // `}` of a block arm; a pattern that is one identifier matches
        // every request not named above it.
        let arm_start = depth == 1 && "{,}".chars().any(|p| m.is_punct(ci, p));
        if arm_start
            && ci + 3 < close
            && m.kind(ci + 1) == TokKind::Ident
            && m.is_punct(ci + 2, '=')
            && m.is_punct(ci + 3, '>')
        {
            return Some(m.line(ci + 1));
        }
    }
    None
}

/// Run the analysis.
pub fn analyze(inp: &ProtocolInputs<'_>) -> Vec<Diagnostic> {
    let Some(proto) = inp.protocol else { return Vec::new() };
    let mut out = Vec::new();
    let mut error = |file: &FileModel, line: u32, message: String| {
        out.push(Diagnostic::new("protocol", Severity::Error, &file.path, line, message));
    };
    let reqs = declared_messages(proto, "Request");
    let resps = declared_messages(proto, "Response");

    // Unique opcode values per direction.
    for set in [&reqs, &resps] {
        for (i, a) in set.iter().enumerate() {
            if let Some(b) = set[..i].iter().find(|b| b.opcode == a.opcode) {
                let message =
                    format!("`{}` reuses opcode {} of `{}`", a.variant, a.opcode, b.variant);
                error(proto, a.line, message);
            }
        }
    }

    for r in &reqs {
        // Request/response pairing.
        match &r.reply {
            Some(reply) if resps.iter().any(|p| p.variant == *reply) => {}
            Some(reply) => error(
                proto,
                r.line,
                format!(
                    "`Request::{}` is declared as answered by `Response::{reply}`, which does \
                     not exist",
                    r.variant
                ),
            ),
            None => error(
                proto,
                r.line,
                format!(
                    "`Request::{}` names no response (declare it as `{} = {} => Reply`)",
                    r.variant, r.variant, r.opcode
                ),
            ),
        }
        let name = opcode_name("REQ", &r.variant);
        if inp.design_md.is_some_and(|design| !design.contains(&name)) {
            error(proto, r.line, format!("`{name}` is not documented in DESIGN.md"));
        }
        if let Some(client) = inp.client.filter(|c| !c.has_path("Request", &r.variant)) {
            error(
                proto,
                r.line,
                format!(
                    "no ServeClient method constructs `Request::{}` in {}",
                    r.variant,
                    client.path.display()
                ),
            );
        }
    }

    // Dispatch exhaustiveness is rustc's job — as long as neither front
    // end's `match` hides a missing arm behind a catch-all.
    for front_end in [inp.server, inp.router].into_iter().flatten() {
        if let Some(line) = catch_all_arm(front_end) {
            let message = "the `dispatch` match has a catch-all arm: a new `Request` variant \
                           would be swallowed instead of failing to compile"
                .to_string();
            error(front_end, line, message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::new(PathBuf::from(path), src.to_string())
    }

    fn proto(table: &str) -> FileModel {
        model("crates/serve/src/protocol.rs", table)
    }

    fn run(protocol: &FileModel) -> Vec<Diagnostic> {
        analyze(&ProtocolInputs {
            protocol: Some(protocol),
            server: None,
            router: None,
            client: None,
            design_md: None,
        })
    }

    const PROTO: &str = "wire_enum! { pub enum Request: \"request tag\" {\n\
        /// Register.\n Load = 1 => Loaded { #[doc = \"x\"] id: u64, b: Vec<f32> as Counted<u16> },\n\
        Ping = 4 => Pong,\n} }\n\
        wire_enum! { pub enum Response: \"response tag\" {\n\
        Loaded = 128 { id: u64 },\n Pong = 131,\n Error = 255 { code: ErrorCode },\n} }\n";

    #[test]
    fn complete_protocol_is_clean() {
        let proto = proto(PROTO);
        let server = model(
            "crates/serve/src/server.rs",
            "fn dispatch(r: Request) -> Response { match r {\n\
             Request::Load { id: _, b } => match b.len() { 0 => empty(), _ => loaded(b) },\n\
             Request::Ping => { Response::Pong }\n\
             } }\n",
        );
        let client = model(
            "crates/serve/src/client.rs",
            "impl ServeClient { fn load(&self) { send(Request::Load { id: 0 }); } fn ping(&self) { send(Request::Ping); } }\n",
        );
        let d = analyze(&ProtocolInputs {
            protocol: Some(&proto),
            server: Some(&server),
            router: Some(&server),
            client: Some(&client),
            design_md: Some("| `REQ_LOAD` | 1 | | `REQ_PING` | 4 |"),
        });
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn table_rows_carry_variant_opcode_and_reply() {
        let proto = proto(PROTO);
        let rows = |name| {
            declared_messages(&proto, name)
                .into_iter()
                .map(|m| (m.variant, m.opcode, m.reply))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            rows("Request"),
            vec![
                ("Load".to_string(), "1".to_string(), Some("Loaded".to_string())),
                ("Ping".to_string(), "4".to_string(), Some("Pong".to_string())),
            ]
        );
        assert_eq!(rows("Response").len(), 3);
        assert_eq!(opcode_name("REQ", "GnnInfer"), "REQ_GNN_INFER");
    }

    #[test]
    fn missing_client_method_flagged() {
        let proto = proto(PROTO);
        let client = model(
            "crates/serve/src/client.rs",
            "impl ServeClient { fn load(&self) { send(Request::Load { id: 0 }); } }\n",
        );
        let d = analyze(&ProtocolInputs {
            protocol: Some(&proto),
            server: None,
            router: None,
            client: Some(&client),
            design_md: None,
        });
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Request::Ping"), "{}", d[0].message);
        assert!(d[0].message.contains("ServeClient"));
    }

    #[test]
    fn unpaired_req_and_unknown_annotation_flagged() {
        let d = run(&proto(
            "pub enum Request: \"r\" { Evict = 9 { id: u64 } }\n\
             pub enum Response: \"r\" { Loaded = 128 }\n",
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("names no response"), "{}", d[0].message);
        let d = run(&proto(
            "pub enum Request: \"r\" { Evict = 9 => Gone { id: u64 } }\n\
             pub enum Response: \"r\" { Loaded = 128 }\n",
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Response::Gone"), "{}", d[0].message);
    }

    #[test]
    fn duplicate_opcode_values_flagged() {
        let d = run(&proto(
            "pub enum Request: \"r\" { A = 1 => A, B = 1 => B }\n\
             pub enum Response: \"r\" { A = 128, B = 129 }\n",
        ));
        assert!(d.iter().any(|x| x.message.contains("reuses opcode 1")), "{d:?}");
    }

    #[test]
    fn undocumented_req_flagged() {
        let proto = proto(
            "pub enum Request: \"r\" { Load = 1 => Loaded }\n\
             pub enum Response: \"r\" { Loaded = 128 }\n",
        );
        let d = analyze(&ProtocolInputs {
            protocol: Some(&proto),
            server: None,
            router: None,
            client: None,
            design_md: Some("the protocol is documented elsewhere"),
        });
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("DESIGN.md"));
    }

    #[test]
    fn catch_all_dispatch_arm_flagged() {
        let proto = proto(PROTO);
        for (arm, line) in [("_ => refuse(),", 3), ("other => refuse(other),", 3)] {
            let router = model(
                "crates/cluster/src/router.rs",
                &format!(
                    "fn dispatch(r: Request) -> Response {{ match r {{\n\
                     Request::Ping => {{ Response::Pong }}\n{arm}\n}} }}\n"
                ),
            );
            let d = analyze(&ProtocolInputs {
                protocol: Some(&proto),
                server: None,
                router: Some(&router),
                client: None,
                design_md: None,
            });
            assert_eq!(d.len(), 1, "{arm}: {d:?}");
            assert_eq!(d[0].line, line, "{arm}");
            assert!(d[0].message.contains("catch-all"), "{}", d[0].message);
            assert!(d[0].file.ends_with("router.rs"), "{:?}", d[0].file);
        }
    }
}
