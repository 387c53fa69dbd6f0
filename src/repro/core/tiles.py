"""The one scoped override of the distance serving path.

:class:`repro.geo.distance.DistanceMatrix` chooses from the instance size
whether to keep the user-event plane resident or to compute each
user-event distance from the coordinates (see ``docs/memory.md``).
:func:`use_distance_backend` forces one path for a ``with`` block: the
scale benchmark pins its 10^5-user instance to the coordinate path, and
tests use it to run both paths on small instances.
"""

from repro.geo.distance import use_distance_backend

__all__ = ["use_distance_backend"]
