// JSON string and number formatting shared by every hand-written JSON
// renderer in the obs and service layers (metrics and trace exports, the
// Chrome trace_event body, and the introspection pages).

#ifndef GUPT_OBS_JSON_H_
#define GUPT_OBS_JSON_H_

#include <string>

namespace gupt {
namespace obs {

/// Escapes `text` for use inside a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, newline, tab and carriage
/// return become \n, \t and \r, other bytes below 0x20 become \u00XX, and
/// every other byte (UTF-8 included) passes through unchanged.
std::string JsonEscape(const std::string& text);

/// `value` with 17 significant digits (%.17g), so a parser reads back the
/// identical double. JSON has no literal for infinities or NaN: those
/// render as null.
std::string JsonDouble(double value);

}  // namespace obs
}  // namespace gupt

#endif  // GUPT_OBS_JSON_H_
