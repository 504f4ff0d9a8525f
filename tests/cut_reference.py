"""The breadth-first reference for the components of G - cut, which
``preprocess._vertex_cuts`` reads off its lowpoint forest instead."""
from twoec.graph import connected_components


def _components_without(g, cut):
    """The components of G - cut: each sorted, ordered by smallest vertex."""
    return connected_components(g, None, set(cut))
