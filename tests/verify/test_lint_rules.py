"""Domain lint rules: each RPRxxx rule catches its violation in scope,
stays silent on compliant code, and respects its scope boundaries."""

import textwrap

from repro.verify import Severity, lint_rule_catalog, lint_source

TFHE_PATH = "src/repro/tfhe/lwe.py"
TORUS_PATH = "src/repro/tfhe/torus.py"
TRANSFORMS_PATH = "src/repro/transforms/negacyclic.py"
CORE_PATH = "src/repro/core/xpu.py"


def lint(source, path=TFHE_PATH, rules=None):
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def test_catalog_has_all_rules():
    codes = [info.code for info in lint_rule_catalog()]
    assert codes == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                     "RPR006"]


def test_syntax_error_reported_as_rpr000():
    report = lint("def broken(:\n")
    assert not report.ok
    assert report.codes() == {"RPR000"}


class TestRpr001RawReduction:
    def test_modulo_q_caught(self):
        for spelling in ("2**32", "(1 << 32)", "0x100000000"):
            report = lint(f"x = (a + b) % {spelling}\n", rules=["RPR001"])
            assert not report.ok, spelling
            assert report.errors[0].code == "RPR001"

    def test_mask_caught_either_side(self):
        assert not lint("x = acc & 0xFFFFFFFF\n", rules=["RPR001"]).ok
        assert not lint("x = 0xFFFFFFFF & acc\n", rules=["RPR001"]).ok

    def test_mask_wrapped_in_numpy_cast_caught(self):
        report = lint("x = acc & np.uint64(0xFFFFFFFF)\n", rules=["RPR001"])
        assert not report.ok

    def test_helper_call_clean(self):
        report = lint(
            """\
            from .torus import to_torus

            x = to_torus(a + b)
            y = a % 7  # unrelated modulus
            """,
            rules=["RPR001"],
        )
        assert report.diagnostics == []

    def test_torus_module_itself_exempt(self):
        report = lint("x = a % 2**32\n", path=TORUS_PATH, rules=["RPR001"])
        assert report.diagnostics == []

    def test_out_of_scope_module_exempt(self):
        report = lint("x = a % 2**32\n", path=CORE_PATH, rules=["RPR001"])
        assert report.diagnostics == []


class TestRpr002FloatEscape:
    def test_astype_float_caught(self):
        for dtype in ("float", "np.float64", "np.float32"):
            report = lint(f"x = arr.astype({dtype})\n", rules=["RPR002"])
            assert not report.ok, dtype

    def test_integer_astype_clean(self):
        report = lint("x = arr.astype(np.int64)\n", rules=["RPR002"])
        assert report.diagnostics == []

    def test_torus_module_itself_exempt(self):
        report = lint("x = arr.astype(np.float64)\n", path=TORUS_PATH,
                      rules=["RPR002"])
        assert report.diagnostics == []


class TestRpr003NarrowDtype:
    def test_narrow_literal_caught(self):
        for dtype in ("float32", "int8", "uint16"):
            report = lint(f"x = np.zeros(4, dtype=np.{dtype})\n",
                          rules=["RPR003"])
            assert not report.ok, dtype

    def test_applies_to_torus_module_too(self):
        report = lint("x = np.float16(0)\n", path=TORUS_PATH, rules=["RPR003"])
        assert not report.ok

    def test_wide_dtypes_clean(self):
        report = lint(
            """\
            a = np.zeros(4, dtype=np.uint32)
            b = a.astype(np.int64)
            c = np.uint64(1)
            """,
            rules=["RPR003"],
        )
        assert report.diagnostics == []

    def test_out_of_scope_module_exempt(self):
        report = lint("x = np.float32(0)\n", path=CORE_PATH, rules=["RPR003"])
        assert report.diagnostics == []


class TestRpr004DirectFft:
    def test_np_fft_attribute_caught(self):
        report = lint("spec = np.fft.rfft(x)\n", path=CORE_PATH,
                      rules=["RPR004"])
        assert not report.ok
        assert "repro.transforms" in report.errors[0].message

    def test_import_from_numpy_fft_caught(self):
        assert not lint("from numpy.fft import rfft\n", path=CORE_PATH,
                        rules=["RPR004"]).ok
        assert not lint("from numpy import fft\n", path=CORE_PATH,
                        rules=["RPR004"]).ok

    def test_transforms_package_exempt(self):
        report = lint("spec = np.fft.rfft(x)\n", path=TRANSFORMS_PATH,
                      rules=["RPR004"])
        assert report.diagnostics == []

    def test_rest_of_transforms_package_caught(self):
        # Only the negacyclic module runs a transform.
        report = lint("spec = np.fft.rfft(x)\n",
                      path="src/repro/transforms/pipeline_model.py",
                      rules=["RPR004"])
        assert not report.ok

    def test_wrapper_usage_clean(self):
        report = lint(
            """\
            from repro.transforms import negacyclic_fft

            spec = negacyclic_fft(x)
            """,
            path=CORE_PATH,
            rules=["RPR004"],
        )
        assert report.diagnostics == []

    def test_numpy_import_alias_caught(self):
        # Acceptance case: `import numpy as xp; xp.fft.fft(x)`.
        report = lint(
            """\
            import numpy as xp

            spec = xp.fft.fft(acc)
            """,
            path=CORE_PATH,
            rules=["RPR004"],
        )
        assert not report.ok
        assert "xp.fft.fft" in report.errors[0].message
        assert "(= numpy.fft.fft)" in report.errors[0].message

    def test_from_import_alias_use_caught(self):
        report = lint(
            """\
            from numpy import fft as F

            spec = F.rfft(x)
            """,
            path=CORE_PATH,
            rules=["RPR004"],
        )
        assert not report.ok
        assert any("F.rfft" in d.message for d in report.errors)

    def test_rebound_name_is_clean(self):
        # np no longer means numpy here; the dataflow pass must see it.
        report = lint(
            """\
            import torch as np

            spec = np.fft.fft(x)
            """,
            path=CORE_PATH,
            rules=["RPR004"],
        )
        assert report.diagnostics == []

    def test_fft_module_alias_without_use_clean(self):
        # Binding a name to np.fft is fine until a transform is used.
        report = lint("F = np.fft\n", path=CORE_PATH, rules=["RPR004"])
        assert report.diagnostics == []


class TestRpr005GlobalRng:
    def test_legacy_call_is_warning(self):
        report = lint("np.random.seed(0)\nx = np.random.randint(0, 10)\n",
                      path=CORE_PATH, rules=["RPR005"])
        assert report.ok  # warnings only
        assert len(report.warnings) == 2
        assert all(d.severity is Severity.WARNING for d in report.warnings)

    def test_generator_api_clean(self):
        report = lint(
            """\
            rng = np.random.default_rng(7)
            x = rng.integers(0, 10)
            """,
            path=CORE_PATH,
            rules=["RPR005"],
        )
        assert report.diagnostics == []

    def test_aliased_legacy_call_caught(self):
        report = lint(
            """\
            import numpy as xp

            xp.random.seed(0)
            """,
            path=CORE_PATH,
            rules=["RPR005"],
        )
        assert report.ok  # warnings only
        assert len(report.warnings) == 1
        assert "xp.random.seed" in report.warnings[0].message

    def test_from_imported_legacy_function_caught(self):
        report = lint(
            """\
            from numpy.random import seed

            seed(0)
            """,
            path=CORE_PATH,
            rules=["RPR005"],
        )
        assert len(report.warnings) == 1

    def test_aliased_generator_api_clean(self):
        report = lint(
            """\
            import numpy as xp

            rng = xp.random.default_rng(7)
            """,
            path=CORE_PATH,
            rules=["RPR005"],
        )
        assert report.diagnostics == []


class TestRpr006IntTruncation:
    def test_bare_division_inside_int_caught(self):
        report = lint("m = int(phase / step)\n", rules=["RPR006"])
        assert not report.ok
        assert report.errors[0].code == "RPR006"

    def test_division_deeper_in_the_expression_caught(self):
        report = lint("m = int((b - a) / (2 * step) + 1)\n", rules=["RPR006"])
        assert not report.ok

    def test_rounded_division_clean(self):
        for spelling in (
            "int(round(phase / step))",
            "int(np.rint(phase / step))",
            "int(math.floor(phase / step))",
        ):
            report = lint(f"m = {spelling}\n", rules=["RPR006"])
            assert report.diagnostics == [], spelling

    def test_torus_helpers_clean(self):
        report = lint(
            """\
            m = int(modswitch(ct.a, 2 * N)[0])
            v = int(decode_message(ct_b, p))
            w = int(round_to_multiple(x, step))
            """,
            rules=["RPR006"],
        )
        assert report.diagnostics == []

    def test_floor_division_is_exact_and_clean(self):
        report = lint("m = int((t + s // 2) // s)\n", rules=["RPR006"])
        assert report.diagnostics == []

    def test_int_without_division_clean(self):
        report = lint("m = int(test_poly[j])\n", rules=["RPR006"])
        assert report.diagnostics == []

    def test_division_outside_int_call_clean(self):
        report = lint("delta = delta_num / float(1 << 32)\n", rules=["RPR006"])
        assert report.diagnostics == []

    def test_torus_module_itself_exempt(self):
        report = lint("m = int(phase / step)\n", path=TORUS_PATH,
                      rules=["RPR006"])
        assert report.diagnostics == []

    def test_out_of_scope_module_exempt(self):
        report = lint("m = int(cycles / frequency)\n", path=CORE_PATH,
                      rules=["RPR006"])
        assert report.diagnostics == []


class TestReportShape:
    def test_diagnostics_carry_path_and_line(self):
        report = lint("a = 1\nx = acc & 0xFFFFFFFF\n", rules=["RPR001"])
        diag = report.errors[0]
        assert diag.path == TFHE_PATH
        assert diag.line == 2
        assert f"{TFHE_PATH}:2" in diag.render()

    def test_rule_filter_limits_findings(self):
        source = "x = arr.astype(np.float64)\ny = acc & 0xFFFFFFFF\n"
        assert lint(source, rules=["RPR001"]).codes() == {"RPR001"}
        assert lint(source, rules=["RPR002"]).codes() == {"RPR002"}
        assert lint(source).codes() == {"RPR001", "RPR002"}
