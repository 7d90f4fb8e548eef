"""``python -m sitelink``: the sitelink command line."""
from .cli import main
raise SystemExit(main())
