"""NP-dtype: every numpy constructor names an explicit dtype.

numpy's default integer dtype is C ``long``: 64-bit on Linux/macOS,
**32-bit on Windows**.  ``np.array(packed_edge_keys)`` therefore works on
the machines CI runs and silently truncates 64-bit packed edge keys
(``pack_edge`` uses the full word) on a Windows checkout.  No module in
``src/`` imports numpy today; the rule stays so any numpy that comes
back into the int-id layers starts out correct.  On those modules it
requires an explicit ``dtype=`` (or the positional dtype slot) on every
array constructor:

``np.array`` / ``asarray`` / ``asanyarray`` / ``ascontiguousarray`` /
``empty`` / ``zeros`` / ``ones`` / ``full`` / ``arange`` / ``fromiter`` /
``frombuffer`` / ``fromstring``.

``*_like`` constructors inherit their prototype's dtype and are exempt.
The convention is ``dtype=np.int64`` end to end, matching the packed
64-bit ids.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.analysis.engine import Rule, module_aliases, register_rule

#: Constructor name → positional index of its dtype parameter (None: the
#: dtype is keyword-only in practice for that constructor).
_CONSTRUCTORS: Dict[str, Optional[int]] = {
    "array": 1,
    "asarray": 1,
    "asanyarray": 1,
    "ascontiguousarray": 1,
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "fromiter": 1,
    "frombuffer": 1,
    "fromstring": 1,
    "full": 2,
    "arange": 3,
}


@register_rule
class NpDtype(Rule):
    rule_id = "NP-dtype"
    title = "numpy constructors in int-id code must name an explicit dtype"
    hint = "pass dtype=np.int64 (packed ids are 64-bit; numpy's default int is 32-bit on Windows)"

    def run(self):
        self._np_aliases = module_aliases(self.ctx.tree, "numpy")
        self.visit(self.ctx.tree)
        return self.findings

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._np_aliases
            and func.attr in _CONSTRUCTORS
        ):
            has_kwarg = any(kw.arg == "dtype" for kw in node.keywords)
            dtype_pos = _CONSTRUCTORS[func.attr]
            has_positional = dtype_pos is not None and len(node.args) > dtype_pos
            if not has_kwarg and not has_positional:
                self.report(
                    node,
                    f"np.{func.attr}() without an explicit dtype "
                    "(platform-dependent default integer width)",
                )
        self.generic_visit(node)
