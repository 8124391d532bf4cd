from setuptools import Extension, setup

# optional: without a C compiler the install still succeeds and canon falls
# back to the pure-Python kernel at import
setup(
    ext_modules=[
        Extension(
            "coalition_kit._fastkernel", ["src/coalition_kit/_fastkernel.c"], optional=True
        )
    ]
)
