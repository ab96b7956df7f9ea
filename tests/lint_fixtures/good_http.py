"""Good fixture: every overload response carries the retry contract."""


class Handler:
    def built_up_body(self):
        body = {"error": "overloaded"}
        body["retry"] = True
        body["retry_after"] = 2
        return 503, body, False, {"Retry-After": "2"}

    async def throttled(self):
        return (
            429,
            {"error": "quota", "retry": True, "retry_after": 1},
            False,
            {"Retry-After": "1"},
        )

    def batch_item(self):
        return {
            "status": "error",
            "code": 504,
            "error": "deadline",
            "retry": True,
            "retry_after": 1,
        }

    def success_is_unconstrained(self):
        return 200, {"ok": True}, False
