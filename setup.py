"""Build script: compiles the optional fused-kernel extension.

The package is fully functional without the extension (a numpy fallback is
selected at import time), so any failure to compile is non-fatal.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Swallow compiler failures so a pure-python install still succeeds."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            print(f"warning: skipping compiled kernels ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: failed to build {ext.name} ({exc}); "
                  "falling back to numpy kernels")


def make_extensions():
    try:
        import numpy
    except ImportError:
        return []
    try:
        from Cython.Build import cythonize
    except ImportError:
        # no Cython: compile the committed C translation of the .pyx
        cythonize, source = None, "src/fairmtl/_ckernels.c"
    else:
        source = "src/fairmtl/_ckernels.pyx"
    ext = Extension(
        "fairmtl._ckernels",
        [source],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        # trapping-math off lets gcc if-convert float compares and
        # vectorize the elementwise loops; results stay IEEE-exact
        extra_compile_args=["-O3", "-fno-trapping-math", "-fno-math-errno"],
    )
    return cythonize([ext], language_level=3) if cythonize else [ext]


setup(ext_modules=make_extensions(), cmdclass={"build_ext": OptionalBuildExt})
