"""A one-entry memo for a computation that consecutive public calls share:
the mode sum behind `kernel.solve_dirichlet` and `kernel.derivative_pair`,
the F behind SCHWARZ_2F1, SP_2F1 and L1_MEAN in `bounds`, and the trial
draws that `verify.check_schwarz` and `check_schwarz_pick` share."""


class LastCall:
    """The key and value of the last call made through this memo.

    A call whose key equals the stored key returns the stored value;
    any other call computes ``fn(*args)``, stores it and returns it.  A
    call that raises stores nothing.  Keys are bytes of the inputs' exact
    bits, so 0.0 and -0.0 are different keys.  The entry is one tuple,
    read once and replaced by one assignment, so a thread sees either the
    old (key, value) pair or the new one, never a key with another key's
    value.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = (None, None)

    def __call__(self, key: bytes, fn, *args):
        entry = self._entry
        if entry[0] == key:
            return entry[1]
        value = fn(*args)
        self._entry = (key, value)
        return value
