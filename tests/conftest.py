from hypothesis import settings

# Fixed examples on every run: a fuzz test cannot pass once and fail the next time.
settings.register_profile("realpw", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("realpw")
