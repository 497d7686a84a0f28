#pragma once
// Plain-text serialization of CDFGs: a stable, diff-friendly format so
// graphs can be saved from one tool invocation and reloaded by another
// (the CLI uses it; tests round-trip every benchmark).
//
// Format, one statement per line ('#' comments allowed):
//   graph  NAME
//   input  NAME WIDTH
//   const  NAME WIDTH VALUE
//   wire   NAME SRC SHIFT
//   node   KIND NAME WIDTH OPERAND...
//   output NAME SRC
//   ctrl   FROM TO
// Operands are node names; statements must appear producers-first.
//
// Lexical grammar (what loadGraphText accepts; it matches reading each
// field with `std::istream >>` in the "C" locale):
//   - Lines end at '\n'. A last line with no '\n' is still read, and a '\r'
//     before the '\n' is plain whitespace. Line numbers in errors count
//     every '\n'-terminated line, blank or not.
//   - A '#' anywhere starts a comment that runs to the end of the line.
//   - Whitespace is the set " \t\n\v\f\r". A field is a maximal run of any
//     other bytes, so a name may hold any such byte, non-ASCII included.
//     A line with no field is skipped.
//   - An integer (WIDTH, VALUE, SHIFT) is [+-]?[0-9]+ and must fit its
//     type (int; int64 for VALUE), else the statement fails with
//     "expected WHAT after 'KEYWORD'". Leading zeros are fine. The digits
//     end at the first non-digit, and the rest of that field is read as
//     the next field: `input a 8abc` is a width-8 input, and
//     `node add s 8abc a b` names an operand `abc`.
//   - Fields after the last one a statement reads are ignored, except for
//     `node`, which reads every remaining field as an operand.

#include <string>

#include "cdfg/graph.hpp"

namespace pmsched {

/// Serialize; the output parses back to an identical graph (names, widths,
/// kinds, operand order, control edges).
[[nodiscard]] std::string saveGraphText(const Graph& g);

/// Parse the format above in one pass over `text`. Throws ParseError on
/// malformed input: at the statement's line for anything one statement
/// gets wrong (a Graph builder's rejection included), at line 1 for a
/// missing `graph` header, at line 0 for whole-graph problems
/// Graph::validate() finds.
[[nodiscard]] Graph loadGraphText(std::string_view text);

}  // namespace pmsched
