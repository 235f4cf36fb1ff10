"""How the lint rules resolve numpy names: the per-module import table
(``repro.verify.rules.numpy_uses``) behind RPR004 and RPR005."""

import ast
import textwrap

from repro.verify import lint_source
from repro.verify.rules import numpy_uses


def uses(source):
    return numpy_uses(ast.parse(textwrap.dedent(source)))


def paths(source):
    return [path for _, path, _, _ in uses(source)]


def fft_lines(source):
    report = lint_source(textwrap.dedent(source), path="src/repro/core/xpu.py",
                         rules=["RPR004"])
    return [d.line for d in report.diagnostics]


class TestImportBindings:
    def test_import_alias_resolves(self):
        assert uses("import numpy as xp\nspec = xp.fft.fft(x)\n") == [
            (2, "numpy.fft.fft", "xp.fft.fft", True)]

    def test_from_import_alias_resolves(self):
        assert uses("from numpy import fft as F\ny = F.rfft(x)\n") == [
            (2, "numpy.fft.rfft", "F.rfft", True)]

    def test_untracked_module_stays_silent(self):
        assert paths("import torch\ny = torch.fft.fft(x)\n") == []

    def test_relative_import_never_tracked(self):
        assert paths("from . import numpy\ny = numpy.fft.fft(x)\n") == []


class TestAssumedBindings:
    def test_bare_np_assumed_numpy(self):
        # Snippets without imports keep linting the way they always have.
        assert paths("y = np.fft.fft(x)\n") == ["numpy.fft.fft"]

    def test_explicit_rebinding_kills_the_assumption(self):
        # Importing another module as np drops the np-means-numpy default.
        assert paths("import torch as np\ny = np.fft.fft(x)\n") == []


class TestBranchMerging:
    def test_union_over_branches_flags_the_maybe(self):
        src = """\
            if fast:
                import numpy as backend
            else:
                import torch as backend
            y = backend.fft.fft(x)
        """
        assert paths(src) == ["numpy.fft.fft"]

    def test_loop_body_binding_reaches_after_the_loop(self):
        src = """\
            for name in names:
                import numpy as xp
            y = xp.fft.fft(x)
        """
        assert paths(src) == ["numpy.fft.fft"]


class TestScopes:
    def test_function_rebinding_does_not_leak_out(self):
        src = """\
            import numpy as xp
            def f():
                xp = stub()
            y = xp.fft.fft(x)
        """
        assert fft_lines(src) == [4]

    def test_uses_inside_functions_still_collected(self):
        src = """\
            import numpy as xp
            def f(x):
                return xp.fft.fft(x)
        """
        assert paths(src) == ["numpy.fft.fft"]

    def test_comprehension_target_shadows(self):
        src = """\
            import numpy as xp
            ys = [xp for xp in backends]
            y = xp.fft.fft(x)
        """
        # The comprehension target only shadows inside the comprehension.
        assert fft_lines(src) == [3]


class TestUseShapes:
    def test_attribute_read_is_not_a_call(self):
        assert uses("import numpy as xp\nwindow = xp.hanning\n") == [
            (2, "numpy.hanning", "xp.hanning", False)]

    def test_broken_chain_still_reports_the_base(self):
        # make() isn't a pure Name/Attribute chain, but xp inside is.
        assert paths("import numpy as xp\ny = make(xp).fft\n") == ["numpy"]

    def test_lineno_points_at_the_use(self):
        found = uses("import numpy as xp\n\n\nspec = xp.fft.fft(x)\n")
        assert found[0][0] == 4
